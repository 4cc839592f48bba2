package ccam

// Tests of the facade's MVCC surface: snapshot isolation across
// concurrent durable Apply traffic (checkpoints and WAL prunes
// included), the background incremental reorganizer's CRR recovery,
// and the planner catalog's incremental upkeep. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccam/internal/netfile"
)

type edgeKey struct{ from, to NodeID }

// snapCosts reads the cost of each edge through the pinned snapshot.
func snapCosts(t *testing.T, snap *Snapshot, edges []Edge) map[edgeKey]float32 {
	t.Helper()
	out := make(map[edgeKey]float32, len(edges))
	for _, e := range edges {
		rec, err := snap.FindCtx(context.Background(), e.From)
		if err != nil {
			t.Fatalf("snapshot Find(%d): %v", e.From, err)
		}
		found := false
		for _, sc := range rec.Succs {
			if sc.To == e.To {
				out[edgeKey{e.From, e.To}] = sc.Cost
				found = true
				break
			}
		}
		if !found {
			t.Fatalf("edge %d->%d missing from snapshot", e.From, e.To)
		}
	}
	return out
}

// TestSnapshotIsolationUnderConcurrentApply pins a snapshot, then runs
// four writers committing SetEdgeCost batches through the WAL with a
// checkpoint bound small enough that several checkpoints (and WAL
// prunes) fire inside the writers' Apply calls. The pinned reader must
// see its LSN-consistent view to completion: every re-read returns the
// pre-churn costs, a fresh snapshot sees the post-churn ones, and the
// version store drains once the pin is released.
func TestSnapshotIsolationUnderConcurrentApply(t *testing.T) {
	g := smallTestMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{
		PageSize: 1024, Path: path, WAL: true, Seed: 3,
		SyncPolicy: SyncGroupCommit, CheckpointBytes: 4096,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()[:16]

	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	baseline := snapCosts(t, snap, edges)
	pinnedLSN := snap.LSN()

	const writers, rounds = 4, 30
	var wg sync.WaitGroup
	errc := make(chan error, writers)
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(40 + w)))
			for i := 0; i < rounds; i++ {
				b := new(Batch)
				for k := 0; k < 3; k++ {
					e := edges[rng.Intn(len(edges))]
					b.SetEdgeCost(e.From, e.To, baseline[edgeKey{e.From, e.To}]+float32(1+rng.Intn(500)))
				}
				if err := s.Apply(context.Background(), b); err != nil {
					errc <- fmt.Errorf("writer %d: %w", w, err)
					return
				}
			}
		}(w)
	}

	// The pinned reader races the writers: every re-read must return
	// the baseline, no matter how many batches commit, checkpoint and
	// prune the log underneath it.
	for i := 0; i < 100; i++ {
		for k, want := range snapCosts(t, snap, edges) {
			if want != baseline[k] {
				t.Fatalf("iteration %d: pinned snapshot sees edge %d->%d cost %v, want %v",
					i, k.from, k.to, want, baseline[k])
			}
		}
	}
	wg.Wait()
	select {
	case err := <-errc:
		t.Fatal(err)
	default:
	}

	// An explicit checkpoint (flush + WAL prune) with the pin still
	// held must not free the pinned pre-images either.
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	for k, want := range snapCosts(t, snap, edges) {
		if want != baseline[k] {
			t.Fatalf("after checkpoint: pinned snapshot sees edge %d->%d cost %v, want %v",
				k.from, k.to, want, baseline[k])
		}
	}

	// A final deterministic batch pins down what a fresh snapshot must
	// see; the old pin keeps its view regardless.
	final := new(Batch)
	for _, e := range edges {
		final.SetEdgeCost(e.From, e.To, baseline[edgeKey{e.From, e.To}]+1000)
	}
	if err := s.Apply(context.Background(), final); err != nil {
		t.Fatal(err)
	}
	fresh, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer fresh.Close()
	if fresh.LSN() <= pinnedLSN {
		t.Fatalf("fresh snapshot LSN %d not above pinned %d", fresh.LSN(), pinnedLSN)
	}
	for k, got := range snapCosts(t, fresh, edges) {
		if want := baseline[k] + 1000; got != want {
			t.Fatalf("fresh snapshot sees edge %d->%d cost %v, want %v", k.from, k.to, got, want)
		}
	}
	for k, got := range snapCosts(t, snap, edges) {
		if got != baseline[k] {
			t.Fatalf("pinned snapshot drifted on edge %d->%d: %v, want %v", k.from, k.to, got, baseline[k])
		}
	}

	// Releasing the pins advances the version floor to the newest
	// commit; every retained pre-image must be collected.
	snap.Close()
	fresh.Close()
	f := s.m.File()
	if entries, bytes := f.Pool().VersionStats(); entries != 0 || bytes != 0 {
		t.Fatalf("version store not drained after release: %d entries, %d bytes", entries, bytes)
	}
}

// TestReorganizerRecoversCRR decays the clustering with delete/reinsert
// churn and drives the background reorganizer by hand (Poke): it must
// recover at least half of the CRR the churn destroyed, through
// bounded incremental rounds only.
func TestReorganizerRecoversCRR(t *testing.T) {
	// The reorganizer reads the file's PAG summary, not a gauge: it must
	// work the same with the metrics registry off.
	t.Run("metrics", func(t *testing.T) { testReorganizerRecoversCRR(t, true) })
	t.Run("no-metrics", func(t *testing.T) { testReorganizerRecoversCRR(t, false) })
}

func testReorganizerRecoversCRR(t *testing.T, withMetrics bool) {
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 7, Metrics: withMetrics})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	s.reorg.maxPages, s.reorg.drop = 64, 0.005
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	crr0 := s.CRR(g)
	// The first poke records the post-Build CRR as the high-water mark
	// (and is otherwise a no-op: nothing has decayed yet).
	if err := s.Poke(); err != nil {
		t.Fatal(err)
	}
	if crr := s.CRR(g); crr != crr0 {
		t.Fatalf("reorganizer moved an undamaged placement: CRR %.4f -> %.4f", crr0, crr)
	}

	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(13))
	churn := newForeignChurn(t, s, g, rng)
	churn(len(ids))
	for tries := 0; s.CRR(g) > crr0-0.05 && tries < 6; tries++ {
		churn(len(ids) / 2)
	}
	crr1 := s.CRR(g)
	if crr1 > crr0-0.03 {
		t.Skipf("churn decayed CRR only %.4f -> %.4f; recovery margin too thin to assert", crr0, crr1)
	}

	// A reader traverses the map's own nodes while the rounds run (the
	// retired `ccam-bench -exp mixed -check` gate): every Find and every
	// 16-hop route must answer, and answer as before the first round —
	// re-clustering moves records, never changes them.
	ctx := context.Background()
	routes, err := RandomWalkRoutes(g, 32, 16, rng)
	if err != nil {
		t.Fatal(err)
	}
	want := make([]RouteAggregate, len(routes))
	for i, r := range routes {
		if want[i], err = s.EvaluateRoute(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	var stop atomic.Bool
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; ; i++ {
			r, w := routes[i%len(routes)], want[i%len(routes)]
			if _, err := s.Find(ctx, r[0]); err != nil {
				t.Errorf("read %d beside the reorganizer: Find(%d): %v", i, r[0], err)
				return
			}
			if got, err := s.EvaluateRoute(ctx, r); err != nil || got != w {
				t.Errorf("read %d beside the reorganizer: EvaluateRoute = %+v, %v; want %+v", i, got, err, w)
				return
			}
			if stop.Load() {
				return
			}
		}
	}()

	target := crr1 + 0.5*(crr0-crr1)
	for i := 0; i < 80 && s.CRR(g) < target; i++ {
		if err := s.Poke(); err != nil {
			t.Fatal(err)
		}
	}
	stop.Store(true)
	wg.Wait()
	crr2 := s.CRR(g)
	if crr2 < target {
		t.Fatalf("reorganizer recovered CRR %.4f -> %.4f, want >= %.4f (build %.4f)", crr1, crr2, target, crr0)
	}
	if reg := s.Metrics(); reg != nil {
		if rounds := reg.Counter("ccam_reorg_rounds_total").Value(); rounds == 0 {
			t.Fatal("recovery asserted but no reorganization rounds ran")
		}
		if pages := reg.Counter("ccam_reorg_pages_total").Value(); pages == 0 {
			t.Fatal("reorganization rounds ran but touched no pages")
		}
	}
	// The store must still hold the exact network after all the churn
	// and re-clustering.
	if s.Len() != g.NumNodes() {
		t.Fatalf("store has %d nodes after reorganization, want %d", s.Len(), g.NumNodes())
	}
}

// newForeignChurn returns a churn wave over s, which holds g: it inserts
// k foreign nodes wired to random nodes of g — the growth overflows
// pages, and every split scatters original records — then deletes them
// again. The map's own edges are untouched, so CRR(g) and the pages a
// route of g reads measure pure placement decay. (Plain
// delete/reinsert churn would not work: CCAM's connectivity-based
// insert placement is itself an incremental re-clustering.)
func newForeignChurn(t *testing.T, s *Store, g *Network, rng *rand.Rand) func(k int) {
	ids := g.NodeIDs()
	foreign := NodeID(1 << 20)
	return func(k int) {
		t.Helper()
		start := foreign
		for i := 0; i < k; i++ {
			id := foreign
			foreign++
			anchor := ids[rng.Intn(len(ids))]
			node, err := g.Node(anchor)
			if err != nil {
				t.Fatal(err)
			}
			rec := &Record{
				ID:    id,
				Pos:   node.Pos,
				Succs: []SuccEntry{{To: anchor, Cost: 1}},
				Preds: []NodeID{ids[rng.Intn(len(ids))]},
			}
			if err := s.Apply(context.Background(), new(Batch).Insert(&InsertOp{Rec: rec, PredCosts: []float32{1}}, FirstOrder)); err != nil {
				t.Fatal(err)
			}
		}
		for id := start; id < foreign; id++ {
			if err := s.Apply(context.Background(), new(Batch).Delete(id, FirstOrder)); err != nil {
				t.Fatal(err)
			}
		}
	}
}

// TestReorganizerRecoversPagesPerRoute measures what the rounds are
// for — the pages a route reads — at the shipped trigger drop and round
// size (reorgTriggerDrop, reorgMaxPages). With a one-page pool every
// page change along a route is one read, so reads per route are pages
// per route. Three readings: after Build, after foreign-node churn, and
// after Poke rounds; the rounds must win back at least half of what the
// churn lost.
func TestReorganizerRecoversPagesPerRoute(t *testing.T) {
	for _, seed := range []int64{7, 8, 9} {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			g := testMap(t)
			s, err := Open(Options{PageSize: 1024, PoolPages: 1, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Build(g); err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			routes, err := RandomWalkRoutes(g, 2000, 16, rng)
			if err != nil {
				t.Fatal(err)
			}
			pagesPerRoute := func() float64 {
				t.Helper()
				if err := s.ResetIO(); err != nil {
					t.Fatal(err)
				}
				for _, r := range routes {
					if _, err := s.EvaluateRoute(context.Background(), r); err != nil {
						t.Fatal(err)
					}
				}
				return float64(s.IO().Reads) / float64(len(routes))
			}
			built := pagesPerRoute()
			// The first round records the built CRR as the high-water mark.
			if err := s.Poke(); err != nil {
				t.Fatal(err)
			}
			newForeignChurn(t, s, g, rng)(g.NumNodes())
			churned := pagesPerRoute()
			if churned <= built {
				t.Fatalf("churn did not raise pages per route: %.3f -> %.3f", built, churned)
			}
			for i := 0; i < 200; i++ {
				if err := s.Poke(); err != nil {
					t.Fatal(err)
				}
			}
			poked := pagesPerRoute()
			recovered := (churned - poked) / (churned - built)
			t.Logf("pages per route: built %.3f, churned %.3f, after rounds %.3f (%.0f%% of the loss recovered)",
				built, churned, poked, 100*recovered)
			if recovered < 0.5 {
				t.Fatalf("rounds recovered %.0f%% of the pages-per-route loss, want >= 50%%", 100*recovered)
			}
		})
	}
}

// TestQueryConcurrentWithApply plans statements in a loop beside a
// loop of Apply batches and reorganizer rounds. Planning reads the PAG
// summary's adjacency and tallies and the placement overlay; every
// mutation and every re-clustered record writes them. Under -race (or,
// with luck, the runtime's own "concurrent map read and map write"
// check) this fails unless both sides go through the summary's lock.
func TestQueryConcurrentWithApply(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 9})
	s.reorg.drop = 1e-9 // any decay at all triggers a round
	ids := g.NodeIDs()
	ctx := context.Background()
	if _, err := s.Query(ctx, fmt.Sprintf("FIND %d", ids[0])); err != nil {
		t.Fatal(err)
	}

	const batches = 60
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		defer close(done)
		model := modelFromNetwork(g)
		rng := rand.New(rand.NewSource(23))
		nextID := NodeID(600000)
		for i := 0; i < batches; i++ {
			b, _ := genBatch(rng, model, &nextID, FirstOrder)
			if b.Len() == 0 {
				continue
			}
			if err := s.Apply(ctx, b); err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
			if err := s.Poke(); err != nil {
				t.Errorf("poke %d: %v", i, err)
				return
			}
		}
	}()
	// EXPLAIN plans without executing: the loop is all summary reads.
	// Nodes come and go under the writer, so a statement may fail to
	// find its start node; only the race matters here.
	rng := rand.New(rand.NewSource(29))
	for n := 0; ; n++ {
		select {
		case <-done:
			wg.Wait()
			if n == 0 {
				t.Fatal("no statement was planned beside the writer")
			}
			return
		default:
		}
		a, b := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		for _, stmt := range []string{
			fmt.Sprintf("EXPLAIN NEIGHBORS %d DEPTH 2", a),
			fmt.Sprintf("EXPLAIN PATH %d TO %d", a, b),
			fmt.Sprintf("EXPLAIN ROUTE %d, %d", a, b),
			fmt.Sprintf("NEIGHBORS %d DEPTH 1", a),
		} {
			if _, err := s.Query(ctx, stmt); err != nil && !IsQueryError(err) && !errors.Is(err, ErrNotFound) {
				t.Fatalf("%s: %v", stmt, err)
			}
		}
	}
}

// TestSnapshotAnswersUnderConcurrentWrites holds one snapshot open
// while a writer commits batches that grow, split, shrink and re-cost
// the pages under it and pokes the reorganizer to re-cluster them, at
// pool sizes of one frame, eight frames and the whole file. Every
// search operation through the snapshot must keep returning the
// network as built — read in place from frames the writer is
// concurrently latching — and the writer must never wait on a reader
// for good. Run with -race.
func TestSnapshotAnswersUnderConcurrentWrites(t *testing.T) {
	g := testMap(t)
	ids := g.NodeIDs()
	want := make(map[NodeID]*Record, len(ids))
	for _, id := range ids {
		rec, err := netfile.RecordFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		want[id] = rec
	}
	routes, err := RandomWalkRoutes(g, 48, 16, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	bb := g.Bounds()
	window := NewRect(
		Point{X: bb.Min.X + bb.Width()*0.4, Y: bb.Min.Y + bb.Height()*0.4},
		Point{X: bb.Min.X + bb.Width()*0.6, Y: bb.Min.Y + bb.Height()*0.6},
	)
	inWindow := 0
	for _, rec := range want {
		if window.Contains(rec.Pos) {
			inWindow++
		}
	}

	for _, pool := range []int{1, 8, 4096} {
		pool := pool
		t.Run(fmt.Sprintf("pool%d", pool), func(t *testing.T) {
			// A WAL makes the pool no-steal: a frame shortage grows the
			// pool instead of failing the writer with ErrAllPinned.
			s, err := Open(Options{
				PageSize: 1024, PoolPages: pool, Seed: 7,
				Path: filepath.Join(t.TempDir(), "net.ccam"), WAL: true, SyncPolicy: SyncNone,
				Metrics: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			s.reorg.maxPages, s.reorg.drop = 64, 0.001
			if err := s.Build(g); err != nil {
				t.Fatal(err)
			}
			if err := s.Poke(); err != nil { // records the high-water CRR
				t.Fatal(err)
			}
			snap, err := s.Snapshot()
			if err != nil {
				t.Fatal(err)
			}
			defer snap.Close()

			ctx := context.Background()
			done := make(chan struct{})
			go func() {
				defer close(done)
				rng := rand.New(rand.NewSource(int64(pool)))
				foreign := NodeID(1 << 20)
				for round := 0; round < 12; round++ {
					// Foreign nodes wired to the map overflow its pages;
					// deleting them leaves the survivors scattered, which
					// is what the reorganizer then repairs.
					start := foreign
					b := new(Batch)
					for i := 0; i < 24; i++ {
						anchor := ids[rng.Intn(len(ids))]
						b.Insert(&InsertOp{
							Rec: &Record{
								ID: foreign, Pos: want[anchor].Pos,
								Succs: []SuccEntry{{To: anchor, Cost: 1}},
								Preds: []NodeID{ids[rng.Intn(len(ids))]},
							},
							PredCosts: []float32{1},
						}, FirstOrder)
						foreign++
					}
					for i := 0; i < 8; i++ {
						if from := want[ids[rng.Intn(len(ids))]]; len(from.Succs) > 0 {
							b.SetEdgeCost(from.ID, from.Succs[0].To, float32(1000+round))
						}
					}
					if err := s.Apply(ctx, b); err != nil {
						t.Errorf("apply: %v", err)
						return
					}
					b = new(Batch)
					for id := start; id < foreign; id++ {
						b.Delete(id, FirstOrder)
					}
					if err := s.Apply(ctx, b); err != nil {
						t.Errorf("apply: %v", err)
						return
					}
					if err := s.Poke(); err != nil {
						t.Errorf("poke: %v", err)
						return
					}
				}
			}()

			rng := rand.New(rand.NewSource(11))
			check := func() {
				id := ids[rng.Intn(len(ids))]
				if rec, err := snap.FindCtx(context.Background(), id); err != nil || !reflect.DeepEqual(rec, want[id]) {
					t.Fatalf("snapshot Find(%d) = %+v, %v; want %+v", id, rec, err, want[id])
				}
				succs, err := snap.GetSuccessorsCtx(context.Background(), id)
				if err != nil || len(succs) != len(want[id].Succs) {
					t.Fatalf("snapshot GetSuccessors(%d) = %d records, %v; want %d", id, len(succs), err, len(want[id].Succs))
				}
				for i, e := range want[id].Succs {
					if !reflect.DeepEqual(succs[i], want[e.To]) {
						t.Fatalf("snapshot GetSuccessors(%d)[%d] = %+v, want %+v", id, i, succs[i], want[e.To])
					}
				}
				route := routes[rng.Intn(len(routes))]
				var wantCost float64
				for i, from := range route[:len(route)-1] {
					for _, e := range want[from].Succs {
						if e.To == route[i+1] {
							wantCost += float64(e.Cost)
							break
						}
					}
				}
				agg, err := snap.EvaluateRouteCtx(context.Background(), route)
				if err != nil || agg.Nodes != len(route) || agg.TotalCost != wantCost {
					t.Fatalf("snapshot EvaluateRoute = %+v, %v; want %d nodes costing %v", agg, err, len(route), wantCost)
				}
				recs, err := snap.RangeQueryCtx(ctx, window)
				if err != nil || len(recs) != inWindow {
					t.Fatalf("snapshot RangeQuery = %d records, %v; want %d", len(recs), err, inWindow)
				}
				for _, rec := range recs {
					if !reflect.DeepEqual(rec, want[rec.ID]) {
						t.Fatalf("snapshot RangeQuery returned %+v, want %+v", rec, want[rec.ID])
					}
				}
				// The map's own nodes are never deleted: the store's
				// per-query snapshots must find them mid-churn too.
				if _, err := s.EvaluateRoute(ctx, route); err != nil {
					t.Fatalf("live EvaluateRoute: %v", err)
				}
			}
			ioBefore, checks := s.IO().Reads, 0
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				check()
				checks++
			}
			// When the pool holds the file, reads beside a durable writer
			// are served from it: pre-images come from the version store
			// and no batch evicts a page a reader needs (the retired
			// `ccam-bench -exp mixed -check` gate, at its threshold).
			if perRead := float64(s.IO().Reads-ioBefore) / float64(checks); pool == 4096 && perRead > 0.05 {
				t.Fatalf("%.4f physical reads per snapshot read over %d reads, want <= 0.05 with the file resident", perRead, checks)
			}
			scanned := 0
			if err := snap.Scan(func(rec *Record) bool {
				scanned++
				if !reflect.DeepEqual(rec, want[rec.ID]) {
					t.Errorf("snapshot Scan returned %+v, want %+v", rec, want[rec.ID])
				}
				return true
			}); err != nil || scanned != len(want) {
				t.Fatalf("snapshot Scan visited %d records, %v; want %d", scanned, err, len(want))
			}
			if rounds := s.Metrics().Counter("ccam_reorg_rounds_total").Value(); rounds == 0 {
				t.Log("the reorganizer never found enough decay to run; re-clustering under the snapshot went unexercised")
			}
		})
	}
}

// findTour returns four nodes of g that form a directed cycle.
func findTour(t *testing.T, g *Network) Route {
	t.Helper()
	for _, a := range g.NodeIDs() {
		for _, b := range g.Successors(a) {
			for _, c := range g.Successors(b) {
				if c == a {
					continue
				}
				for _, d := range g.Successors(c) {
					if d == a || d == b {
						continue
					}
					if _, err := g.Edge(d, a); err == nil {
						return Route{a, b, c, d}
					}
				}
			}
		}
	}
	t.Fatal("map has no 4-cycle")
	return nil
}

// queryAnswers is what every query of the facade returns for one fixed
// set of arguments around a victim node and a probe edge.
type queryAnswers struct {
	Find           *Record
	Successor      *Record
	Successors     []*Record
	Route          RouteAggregate
	Window         []NodeID
	Has            bool
	Batch          []*Record
	Routes         []RouteAggregate
	Nearest        []*Record
	Path, PathStar Path
	Tour           TourAggregate
	Allocations    map[NodeID]Allocation
	AllocTotal     float64
	RouteUnit      RouteUnitAggregate
	Scanned        int
	ScanSawVictim  bool
	QueryPath      Route
}

// TestQueriesDoNotWaitForStalledWriter parks an Apply inside the store
// — under the writer mutex, after it has rewritten an edge cost and
// deleted a node, before its commit — and runs every query of the
// facade beside it. There is one reader regime: each query must return
// within its deadline, and return the pre-batch answer. The subtest is
// named for the spatial index the store's Nearest runs on.
func TestQueriesDoNotWaitForStalledWriter(t *testing.T) {
	t.Run("zorder", testQueriesBesideStalledWriter)
}

func testQueriesBesideStalledWriter(t *testing.T) {
	parked, release := make(chan struct{}), make(chan struct{})
	s, g := builtStore(t, Options{
		PageSize: 1024, Seed: 5,
		applyFaultHook: func(i int) error {
			if i == 2 {
				close(parked)
				<-release
			}
			return nil
		},
	})
	ctx := context.Background()

	// The victim has a predecessor and a successor; the probe edge and
	// the tour stay clear of it.
	var victim, pred, succ NodeID
	for _, id := range g.NodeIDs() {
		if ps, ss := g.Predecessors(id), g.Successors(id); len(ps) > 0 && len(ss) > 0 && ps[0] != ss[0] {
			victim, pred, succ = id, ps[0], ss[0]
			break
		}
	}
	vnode, err := g.Node(victim)
	if err != nil {
		t.Fatal(err)
	}
	tour := findTour(t, g)
	var probe Edge
	for _, e := range g.Edges() {
		if e.From != victim && e.To != victim {
			probe = e
			break
		}
	}
	through := Route{pred, victim, succ}
	window := NewRect(Point{X: vnode.Pos.X - 1, Y: vnode.Pos.Y - 1}, Point{X: vnode.Pos.X + 1, Y: vnode.Pos.Y + 1})
	unit := [][2]NodeID{{probe.From, probe.To}, {pred, victim}, {victim, succ}}

	// ask runs every query; each must finish within 2 s.
	ask := func(when string) queryAnswers {
		t.Helper()
		var a queryAnswers
		within := func(name string, op func() error) {
			t.Helper()
			done := make(chan error, 1)
			go func() { done <- op() }()
			select {
			case err := <-done:
				if err != nil {
					t.Errorf("%s: %s: %v", when, name, err)
				}
			case <-time.After(2 * time.Second):
				t.Errorf("%s: %s waits for the writer", when, name)
			}
		}
		within("Find", func() (err error) { a.Find, err = s.Find(ctx, victim); return })
		within("GetASuccessor", func() (err error) {
			cur, err := s.Find(ctx, pred)
			if err != nil {
				return err
			}
			a.Successor, err = s.GetASuccessor(ctx, cur, victim)
			return err
		})
		within("GetSuccessors", func() (err error) { a.Successors, err = s.GetSuccessors(ctx, probe.From); return })
		within("EvaluateRoute", func() (err error) { a.Route, err = s.EvaluateRoute(ctx, through); return })
		within("RangeQuery", func() error {
			recs, err := s.RangeQuery(ctx, window)
			for _, r := range recs {
				a.Window = append(a.Window, r.ID)
			}
			sort.Slice(a.Window, func(i, j int) bool { return a.Window[i] < a.Window[j] })
			return err
		})
		within("Has", func() (err error) { a.Has, err = s.Has(ctx, victim); return })
		within("FindBatch", func() (err error) { a.Batch, err = s.FindBatch(ctx, []NodeID{victim, probe.From}); return })
		within("EvaluateRoutes", func() (err error) {
			a.Routes, err = s.EvaluateRoutes(ctx, []Route{through, {probe.From, probe.To}})
			return
		})
		within("Nearest", func() (err error) { a.Nearest, err = s.Nearest(ctx, vnode.Pos, 1); return })
		within("ShortestPath", func() (err error) { a.Path, err = s.ShortestPath(ctx, pred, succ, 0); return })
		within("ShortestPath A*", func() (err error) { a.PathStar, err = s.ShortestPath(ctx, pred, victim, 0.5); return })
		within("EvaluateTour", func() (err error) { a.Tour, err = s.EvaluateTour(ctx, tour); return })
		within("LocationAllocation", func() error {
			allocs, total, _, err := s.LocationAllocation(ctx, []NodeID{probe.From})
			a.Allocations = make(map[NodeID]Allocation, len(allocs))
			for _, al := range allocs {
				a.Allocations[al.Demand] = al
			}
			a.AllocTotal = total
			return err
		})
		within("EvaluateRouteUnit", func() (err error) { a.RouteUnit, err = s.EvaluateRouteUnit(ctx, "u", unit); return })
		within("Scan", func() error {
			return s.Scan(func(rec *Record) bool {
				a.Scanned++
				a.ScanSawVictim = a.ScanSawVictim || rec.ID == victim
				return true
			})
		})
		within("Query", func() error {
			res, err := s.Query(ctx, fmt.Sprintf("PATH %d TO %d", pred, victim))
			if err == nil {
				a.QueryPath = res.Path
			}
			return err
		})
		return a
	}

	before := ask("quiescent")
	if t.Failed() {
		t.FailNow()
	}
	// The quiescent answers agree with the reference network.
	if before.Find.ID != victim || !before.Has || !before.ScanSawVictim || before.Scanned != g.NumNodes() {
		t.Fatalf("quiescent store does not hold node %d of %d nodes", victim, g.NumNodes())
	}
	if len(before.Nearest) != 1 || before.Nearest[0].Pos != vnode.Pos {
		t.Fatalf("Nearest(%v) = %v, want the node there", vnode.Pos, before.Nearest)
	}
	if n := len(before.PathStar.Nodes); n == 0 || before.PathStar.Nodes[n-1] != victim {
		t.Fatalf("shortest path to %d = %v", victim, before.PathStar.Nodes)
	}
	if n := len(before.QueryPath); n == 0 || before.QueryPath[n-1] != victim {
		t.Fatalf("PATH to %d = %v", victim, before.QueryPath)
	}
	var wantUnit float64
	for _, m := range unit {
		e, err := g.Edge(m[0], m[1])
		if err != nil {
			t.Fatal(err)
		}
		wantUnit += e.Cost
	}
	if math.Abs(before.RouteUnit.TotalCost-wantUnit) > 1e-3 {
		t.Fatalf("route unit costs %v, the network says %v", before.RouteUnit.TotalCost, wantUnit)
	}

	applied := make(chan error, 1)
	go func() {
		applied <- s.Apply(ctx, new(Batch).
			SetEdgeCost(probe.From, probe.To, float32(probe.Cost)+1000).
			Delete(victim, FirstOrder).
			SetEdgeCost(tour[0], tour[1], 1))
	}()
	<-parked
	during := ask("writer parked")
	close(release)
	if err := <-applied; err != nil {
		t.Fatal(err)
	}
	bv, dv := reflect.ValueOf(before), reflect.ValueOf(during)
	for i := 0; i < bv.NumField(); i++ {
		if !reflect.DeepEqual(bv.Field(i).Interface(), dv.Field(i).Interface()) {
			t.Errorf("%s beside the parked writer does not return the pre-batch answer", bv.Type().Field(i).Name)
		}
	}
	// Once the batch commits, the same queries see it.
	if _, err := s.Find(ctx, victim); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Find(%d) after the commit: %v", victim, err)
	}
	if agg, err := s.EvaluateRoute(ctx, Route{probe.From, probe.To}); err != nil || agg.TotalCost != float64(float32(probe.Cost)+1000) {
		t.Fatalf("probe edge after the commit: %+v, %v", agg, err)
	}
}

// TestPanicInWriteTransactionReleasesTheWriterMutex: a panic inside a
// write transaction — here from the apply hook, after the batch has
// rewritten an edge cost — must not leave the writer mutex held. The
// panic reaches the caller, the store is poisoned for later writers, a
// view pinned before the batch keeps its pre-batch answers, and Close
// returns instead of hanging on the mutex.
func TestPanicInWriteTransactionReleasesTheWriterMutex(t *testing.T) {
	s, g := builtStore(t, Options{
		PageSize: 1024, Seed: 5,
		applyFaultHook: func(i int) error {
			if i == 1 {
				panic("injected mid-batch")
			}
			return nil
		},
	})
	ctx := context.Background()
	e := g.Edges()[0]
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	want, err := snap.EvaluateRouteCtx(context.Background(), Route{e.From, e.To})
	if err != nil {
		t.Fatal(err)
	}

	func() {
		defer func() {
			if p := recover(); p != "injected mid-batch" {
				t.Fatalf("Apply recovered %v, want the injected panic", p)
			}
		}()
		b := new(Batch).SetEdgeCost(e.From, e.To, float32(e.Cost)+1000).SetEdgeCost(e.From, e.To, 1)
		s.Apply(ctx, b)
		t.Fatal("Apply returned; the hook should have panicked")
	}()

	if got, err := snap.EvaluateRouteCtx(context.Background(), Route{e.From, e.To}); err != nil || got != want {
		t.Fatalf("pinned view after the panic: %+v, %v; want %+v", got, err, want)
	}
	snap.Close()
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, 2)); !errors.Is(err, ErrClosed) || !strings.Contains(err.Error(), "panic: injected mid-batch") {
		t.Fatalf("Apply after the panic = %v, want the poison error naming it", err)
	}
	closed := make(chan error, 1)
	go func() { closed <- s.Close() }()
	select {
	case err := <-closed:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Close hangs: the panicking transaction left the writer mutex held")
	}
}

// TestReorganizerRoundIsAWriteTransaction: a round runs through the
// same transaction function as Apply. A healthy round is logged,
// committed durably and followed by the gauges; a round on a log that
// has failed fails the way an Apply does — the error comes back and the
// next writer meets it too, before anything is modified — instead of
// returning silently.
func TestReorganizerRoundIsAWriteTransaction(t *testing.T) {
	g := smallTestMap(t)
	s, err := Open(Options{
		PageSize: 1024, Seed: 3, Metrics: true,
		Path: filepath.Join(t.TempDir(), "net.ccam"), WAL: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	// A round that finds its neighborhood a local optimum logs nothing
	// and opens no transaction, and Create's full pages on this small map
	// are one. So misplace a record of each page by hand before each
	// round below, so that it has something to move and must log its
	// commit: the first goes to the first other page with room.
	f := s.m.File()
	misplace := func() {
		t.Helper()
		misplaced := 0
		for _, src := range f.Pages() {
			recs, err := f.RecordsOnPage(src)
			if err != nil {
				t.Fatal(err)
			}
			for _, dst := range f.Pages() {
				free, _ := f.FreeSpace(dst)
				if dst != src && free >= recs[0].EncodedSize() {
					if err := f.MoveRecord(recs[0].ID, dst); err != nil {
						t.Fatal(err)
					}
					misplaced++
					break
				}
			}
		}
		if misplaced == 0 {
			t.Fatal("no page had room for a misplaced record")
		}
	}
	misplace()
	// A high-water mark of 1 makes any placement look decayed.
	s.reorg.highwater = 1
	before := s.WALStats()
	if err := s.Poke(); err != nil {
		t.Fatal(err)
	}
	after := s.WALStats()
	if after.AppendedLSN == before.AppendedLSN {
		t.Fatal("the round logged nothing: the trigger did not fire")
	}
	if after.DurableLSN != after.AppendedLSN {
		t.Fatalf("the round returned with LSN %d appended but only %d durable", after.AppendedLSN, after.DurableLSN)
	}
	if err := s.Verify(); err != nil { // the gauges included
		t.Fatal(err)
	}

	misplace()
	// Fail the log for good: a directory squats on the name of the next
	// segment, so the log restart of a rebuild cannot open it, and the
	// log keeps that error. The failed Build changed nothing.
	walDir := s.wal.Dir()
	segs, err := os.ReadDir(walDir)
	if err != nil || len(segs) == 0 {
		t.Fatalf("wal dir: %d segments, %v", len(segs), err)
	}
	var last uint64
	if _, err := fmt.Sscanf(segs[len(segs)-1].Name(), "%08d.wal", &last); err != nil {
		t.Fatal(err)
	}
	if err := os.Mkdir(filepath.Join(walDir, fmt.Sprintf("%08d.wal", last+1)), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err == nil || s.wal.Err() == nil {
		t.Fatalf("Build over an unopenable segment: %v, the log's error %v", err, s.wal.Err())
	}
	placed := s.Placement()
	s.reorg.highwater = 1
	roundErr := s.Poke()
	if roundErr == nil {
		t.Fatal("a round on a failed log returned no error")
	}
	if !reflect.DeepEqual(s.Placement(), placed) {
		t.Fatal("a round on a failed log moved records")
	}
	e := g.Edges()[0]
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, 1)); err == nil || err.Error() != roundErr.Error() {
		t.Fatalf("the next writer got %v, the round %v", err, roundErr)
	}
	// Nothing was modified, so nothing is poisoned: queries go on.
	if _, err := s.Find(context.Background(), e.From); err != nil {
		t.Fatal(err)
	}
}

// TestPokeUnbuiltOrClosed: an unbuilt store has nothing to reorganize,
// so Poke returns nil and logs nothing; a closed store reports
// ErrClosed.
func TestPokeUnbuiltOrClosed(t *testing.T) {
	s, err := Open(Options{PageSize: 1024, Path: filepath.Join(t.TempDir(), "net.ccam"), WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	before := s.WALStats()
	if err := s.Poke(); err != nil {
		t.Fatalf("Poke on an unbuilt store: %v", err)
	}
	if after := s.WALStats(); after.AppendedLSN != before.AppendedLSN {
		t.Fatalf("Poke on an unbuilt store logged LSNs %d..%d", before.AppendedLSN, after.AppendedLSN)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s.Poke(); !errors.Is(err, ErrClosed) {
		t.Fatalf("Poke on a closed store = %v, want ErrClosed", err)
	}
}

// TestSnapshotCloseReleasesOnlyItsOwnPin: the pool keeps one pin count
// per LSN, so a Snapshot that could release its pin twice would take
// the pin of another snapshot at the same LSN, and a later commit would
// leak into that one. Close is the only release a Snapshot holder can
// reach: neither *Snapshot nor the View its Charging returns has an
// Unpin, and a second Close does nothing.
func TestSnapshotCloseReleasesOnlyItsOwnPin(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 1024, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	a, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	b, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	for _, typ := range []reflect.Type{reflect.TypeOf(a), reflect.TypeOf(a.Charging(nil))} {
		if _, ok := typ.MethodByName("Unpin"); ok {
			t.Errorf("%v has an Unpin method: a snapshot holder can release a pin Close also releases", typ)
		}
	}
	pool := s.m.File().Pool()
	if n := pool.ActiveSnapshots(); n != 2 {
		t.Fatalf("ActiveSnapshots = %d with two snapshots open, want 2", n)
	}
	e := g.Edges()[0]
	before := snapCosts(t, b, []Edge{e})[edgeKey{e.From, e.To}]
	a.Close()
	a.Close()
	if n := pool.ActiveSnapshots(); n != 1 {
		t.Fatalf("ActiveSnapshots = %d after closing one of two snapshots twice, want 1", n)
	}
	if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, before+100)); err != nil {
		t.Fatal(err)
	}
	if got := snapCosts(t, b, []Edge{e})[edgeKey{e.From, e.To}]; got != before {
		t.Fatalf("open snapshot reads edge %d->%d at cost %v after a later commit, want its pinned %v", e.From, e.To, got, before)
	}
	c, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if got := snapCosts(t, c, []Edge{e})[edgeKey{e.From, e.To}]; got != before+100 {
		t.Fatalf("a fresh snapshot reads edge %d->%d at cost %v, want the committed %v", e.From, e.To, got, before+100)
	}
}
