package ccam

// Tests of the facade's MVCC surface: snapshot isolation across
// concurrent durable Apply traffic (checkpoints and WAL prunes
// included), the background incremental reorganizer's CRR recovery,
// and the planner catalog's incremental upkeep. Run with -race.

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"reflect"
	"sync"
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
		rec, err := snap.Find(e.From)
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
	s, err := Open(Options{
		PageSize: 1024, Seed: 7, Metrics: withMetrics,
		BackgroundReorg: true,
		// The timer must not fire mid-test; every round comes from Poke.
		ReorgInterval:    time.Hour,
		ReorgMaxPages:    64,
		ReorgTriggerDrop: 0.005,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	crr0 := s.CRR(g)
	// The first poke records the post-Build CRR as the high-water mark
	// (and is otherwise a no-op: nothing has decayed yet).
	s.Poke()
	if crr := s.CRR(g); crr != crr0 {
		t.Fatalf("reorganizer moved an undamaged placement: CRR %.4f -> %.4f", crr0, crr)
	}

	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(13))
	// Each churn wave inserts foreign nodes wired to random existing
	// nodes — the growth overflows pages, and every split scatters
	// original records — then deletes them again. The map's own edges
	// are untouched, so CRR(g) measures pure placement decay. (Plain
	// delete/reinsert churn would not work: CCAM's connectivity-based
	// insert placement is itself an incremental re-clustering.)
	foreign := NodeID(1 << 20)
	churn := func(k int) {
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
			if err := s.Insert(&InsertOp{Rec: rec, PredCosts: []float32{1}}, FirstOrder); err != nil {
				t.Fatal(err)
			}
		}
		for id := start; id < foreign; id++ {
			if err := s.Delete(id, FirstOrder); err != nil {
				t.Fatal(err)
			}
		}
	}
	churn(len(ids))
	for tries := 0; s.CRR(g) > crr0-0.05 && tries < 6; tries++ {
		churn(len(ids) / 2)
	}
	crr1 := s.CRR(g)
	if crr1 > crr0-0.03 {
		t.Skipf("churn decayed CRR only %.4f -> %.4f; recovery margin too thin to assert", crr0, crr1)
	}

	target := crr1 + 0.5*(crr0-crr1)
	for i := 0; i < 80 && s.CRR(g) < target; i++ {
		s.Poke()
	}
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

// TestQueryConcurrentWithApply plans statements in a loop beside a
// loop of Apply batches and reorganizer rounds. Planning reads the PAG
// summary's adjacency and tallies and the placement overlay; every
// mutation and every re-clustered record writes them. Under -race (or,
// with luck, the runtime's own "concurrent map read and map write"
// check) this fails unless both sides go through the summary's lock.
func TestQueryConcurrentWithApply(t *testing.T) {
	s, g := builtStore(t, Options{
		PageSize: 1024, Seed: 9,
		// Every round comes from Poke; any decay at all triggers one.
		BackgroundReorg: true, ReorgInterval: time.Hour, ReorgTriggerDrop: 1e-9,
	})
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
			b, _ := genBatch(rng, model, &nextID)
			if b.Len() == 0 {
				continue
			}
			if err := s.Apply(ctx, b); err != nil {
				t.Errorf("apply %d: %v", i, err)
				return
			}
			s.Poke()
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
				Metrics: true, BackgroundReorg: true,
				ReorgInterval: time.Hour, ReorgMaxPages: 64, ReorgTriggerDrop: 0.001,
			})
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Build(g); err != nil {
				t.Fatal(err)
			}
			s.Poke() // records the high-water CRR
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
					s.Poke()
				}
			}()

			rng := rand.New(rand.NewSource(11))
			check := func() {
				id := ids[rng.Intn(len(ids))]
				if rec, err := snap.Find(id); err != nil || !reflect.DeepEqual(rec, want[id]) {
					t.Fatalf("snapshot Find(%d) = %+v, %v; want %+v", id, rec, err, want[id])
				}
				succs, err := snap.GetSuccessors(id)
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
				agg, err := snap.EvaluateRoute(route)
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
			for running := true; running; {
				select {
				case <-done:
					running = false
				default:
				}
				check()
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
