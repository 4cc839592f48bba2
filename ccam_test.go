package ccam

import (
	"cmp"
	"context"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sync"
	"testing"

	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/query"
	"ccam/internal/storage"
)

func testMap(t *testing.T) *Network {
	t.Helper()
	opts := MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 16, 16
	g, err := RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// has reports whether s stores id, failing the test on an error.
func has(t *testing.T, s *Store, id NodeID) bool {
	t.Helper()
	ok, err := s.Has(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	return ok
}

func TestStoreLifecycle(t *testing.T) {
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if _, err := s.Find(context.Background(), 1); err == nil {
		t.Fatal("Find on unbuilt store succeeded")
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	if s.Len() != g.NumNodes() {
		t.Fatalf("Len = %d, want %d", s.Len(), g.NumNodes())
	}
	if s.NumPages() == 0 {
		t.Fatal("no pages")
	}
	id := g.NodeIDs()[0]
	rec, err := s.Find(context.Background(), id)
	if err != nil || rec.ID != id {
		t.Fatalf("Find = %v, %v", rec, err)
	}
	if !has(t, s, id) || has(t, s, 999999) {
		t.Fatal("Has wrong")
	}
	if _, err := s.Find(context.Background(), 999999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing find = %v", err)
	}
	if crr := s.CRR(g); crr < 0.5 {
		t.Fatalf("CRR = %f", crr)
	}
}

func TestStoreOperations(t *testing.T) {
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}

	// Get-successors and Get-A-successor.
	id := g.NodeIDs()[5]
	succs, err := s.GetSuccessors(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	if len(succs) != len(g.Successors(id)) {
		t.Fatalf("GetSuccessors = %d records, want %d", len(succs), len(g.Successors(id)))
	}
	rec, _ := s.Find(context.Background(), id)
	if len(rec.Succs) > 0 {
		sr, err := s.GetASuccessor(context.Background(), rec, rec.Succs[0].To)
		if err != nil || sr.ID != rec.Succs[0].To {
			t.Fatalf("GetASuccessor = %v, %v", sr, err)
		}
		if _, err := s.GetASuccessor(context.Background(), rec, 999999); err == nil {
			t.Fatal("GetASuccessor accepted a non-successor")
		}
	}

	// Route evaluation.
	rng := rand.New(rand.NewSource(3))
	routes, err := RandomWalkRoutes(g, 5, 8, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		agg, err := s.EvaluateRoute(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Nodes != 8 || agg.TotalCost <= 0 {
			t.Fatalf("aggregate = %+v", agg)
		}
	}

	// Range query.
	b := g.Bounds()
	all, err := s.RangeQuery(context.Background(), b)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumNodes() {
		t.Fatalf("RangeQuery(all) = %d, want %d", len(all), g.NumNodes())
	}

	// Maintenance: delete and re-insert a node, and an edge round trip.
	victim := g.NodeIDs()[7]
	op, err := InsertOpFromNode(g, victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), new(Batch).Delete(victim, SecondOrder)); err != nil {
		t.Fatal(err)
	}
	if has(t, s, victim) {
		t.Fatal("deleted node still present")
	}
	if err := s.Apply(context.Background(), new(Batch).Insert(op, SecondOrder)); err != nil {
		t.Fatal(err)
	}
	if !has(t, s, victim) {
		t.Fatal("re-inserted node missing")
	}
	e := g.Edges()[0]
	if err := s.Apply(context.Background(), new(Batch).DeleteEdge(e.From, e.To, FirstOrder)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), new(Batch).InsertEdge(e.From, e.To, float32(e.Cost), FirstOrder)); err != nil {
		t.Fatal(err)
	}

	// I/O metering is exposed.
	if err := s.ResetIO(); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Find(context.Background(), victim); err != nil {
		t.Fatal(err)
	}
	if s.IO().Reads == 0 {
		t.Fatal("Find cost no I/O after reset")
	}
}

func TestStoreFileBacked(t *testing.T) {
	g := testMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{PageSize: 1024, Seed: 4, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	id := g.NodeIDs()[3]
	if _, err := s.Find(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if err := s.Checkpoint(); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

func TestDynamicStore(t *testing.T) {
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 6, Dynamic: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	if s.Len() != g.NumNodes() {
		t.Fatalf("Len = %d", s.Len())
	}
	if crr := s.CRR(g); crr < 0.4 {
		t.Fatalf("CCAM-D CRR = %f", crr)
	}
}

func TestStoreReopen(t *testing.T) {
	g := testMap(t)
	path := filepath.Join(t.TempDir(), "persist.ccam")
	s, err := Open(Options{PageSize: 1024, Seed: 8, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	wantLen, wantPages := s.Len(), s.NumPages()
	wantCRR := s.CRR(g)
	// Mutate after build so the reopen covers post-build state too.
	victim := g.NodeIDs()[4]
	op, err := InsertOpFromNode(g, victim)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), new(Batch).Delete(victim, SecondOrder)); err != nil {
		t.Fatal(err)
	}
	if err := s.Apply(context.Background(), new(Batch).Insert(op, SecondOrder)); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	r, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if r.Len() != wantLen {
		t.Fatalf("reopened Len = %d, want %d", r.Len(), wantLen)
	}
	if r.NumPages() == 0 || r.NumPages() > wantPages+3 {
		t.Fatalf("reopened pages = %d (was %d)", r.NumPages(), wantPages)
	}
	// Every record is intact, with its full lists.
	for _, id := range g.NodeIDs() {
		rec, err := r.Find(context.Background(), id)
		if err != nil {
			t.Fatalf("reopened Find(%d): %v", id, err)
		}
		if len(rec.Succs) != len(g.Successors(id)) || len(rec.Preds) != len(g.Predecessors(id)) {
			t.Fatalf("node %d lists damaged by reopen", id)
		}
	}
	// Clustering quality survives (placement is byte-identical except
	// for the mutated node's neighborhood).
	if got := r.CRR(g); got < wantCRR-0.05 {
		t.Fatalf("reopened CRR %.4f, was %.4f", got, wantCRR)
	}
	// The reopened store is fully operational: spatial query + update.
	all, err := r.RangeQuery(context.Background(), g.Bounds())
	if err != nil || len(all) != g.NumNodes() {
		t.Fatalf("reopened range query: %d records, %v", len(all), err)
	}
	if err := r.Apply(context.Background(), new(Batch).Delete(victim, FirstOrder)); err != nil {
		t.Fatalf("reopened delete: %v", err)
	}
	if err := r.Apply(context.Background(), new(Batch).Insert(op, FirstOrder)); err != nil {
		t.Fatalf("reopened insert: %v", err)
	}
}

func TestOpenPathRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(path, []byte("not a page file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPath(path, Options{}); err == nil {
		t.Fatal("garbage file accepted")
	}
	if _, err := OpenPath(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Fatal("missing file accepted")
	}
}

func TestStoreConcurrentUse(t *testing.T) {
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, Seed: 12})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	ids := g.NodeIDs()
	var wg sync.WaitGroup
	errCh := make(chan error, 64)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for i := 0; i < 100; i++ {
				id := ids[rng.Intn(len(ids))]
				switch i % 4 {
				case 0:
					if _, err := s.Find(context.Background(), id); err != nil {
						errCh <- err
						return
					}
				case 1:
					if _, err := s.GetSuccessors(context.Background(), id); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, err := s.Has(context.Background(), id); err != nil {
						errCh <- err
						return
					}
					s.Len()
				case 3:
					e := g.Edges()[rng.Intn(g.NumEdges())]
					if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, float32(e.Cost))); err != nil {
						errCh <- err
						return
					}
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
}

// TestOpenPathDetectsCorruption pins the durability contract of the
// public facade: on-disk corruption surfaces as the re-exported
// ErrChecksum sentinel, and after an fsck repair the file opens again
// with the damaged page's records quarantined — not with silent
// garbage.
func TestOpenPathDetectsCorruption(t *testing.T) {
	g := testMap(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := Open(Options{PageSize: 1024, Seed: 9, Path: path})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	total := s.Len()
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Flip one bit in the middle of a data page, beneath every
	// integrity layer.
	if err := storage.CorruptPage(path, 1, 500*8); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenPath(path, Options{}); !errors.Is(err, ErrChecksum) {
		t.Fatalf("OpenPath on corrupted file = %v, want wrapped ErrChecksum", err)
	}

	// Repair quarantines the page; the survivors open and serve.
	rep, err := storage.RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("repair left damage: %v", rep.Damaged)
	}
	r, err := OpenPath(path, Options{})
	if err != nil {
		t.Fatalf("OpenPath after repair: %v", err)
	}
	defer r.Close()
	if got := r.Len(); got == 0 || got >= total {
		t.Fatalf("after quarantine Len = %d, want 0 < n < %d", got, total)
	}
	for _, id := range g.NodeIDs() {
		rec, err := r.Find(context.Background(), id)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue // quarantined with its page
			}
			t.Fatalf("Find(%d) after repair: %v", id, err)
		}
		if rec.ID != id {
			t.Fatalf("Find(%d) returned %d after repair", id, rec.ID)
		}
	}
}

// TestApplyBeforeBuild applies all five mutation kinds to an unbuilt
// store, each kind first in turn: the batch goes through the same
// dispatch as a live Apply and WAL replay, and the first op must fail
// with the CCAM method's own pre-Build error.
func TestApplyBeforeBuild(t *testing.T) {
	ins := &InsertOp{Rec: &Record{ID: 1, Succs: []SuccEntry{{To: 2, Cost: 1}}}}
	kinds := []struct {
		name  string
		queue func(b *Batch) *Batch
	}{
		{"insert", func(b *Batch) *Batch { return b.Insert(ins, SecondOrder) }},
		{"delete", func(b *Batch) *Batch { return b.Delete(1, FirstOrder) }},
		{"insert-edge", func(b *Batch) *Batch { return b.InsertEdge(1, 2, 3, HigherOrder) }},
		{"delete-edge", func(b *Batch) *Batch { return b.DeleteEdge(1, 2, Lazy) }},
		{"set-edge-cost", func(b *Batch) *Batch { return b.SetEdgeCost(1, 2, 3) }},
	}
	s, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	for first := range kinds {
		b := new(Batch)
		for i := range kinds {
			b = kinds[(first+i)%len(kinds)].queue(b)
		}
		if err := s.Apply(context.Background(), b); !errors.Is(err, errEmpty) {
			t.Errorf("Apply before Build, %s first: %v, want %q", kinds[first].name, err, errEmpty)
		}
		if err := s.Apply(context.Background(), kinds[first].queue(new(Batch))); !errors.Is(err, errEmpty) {
			t.Errorf("Apply before Build, %s alone: %v, want %q", kinds[first].name, err, errEmpty)
		}
	}
	if s.Len() != 0 || s.failedErr() != nil {
		t.Error("a rejected pre-Build batch left state behind")
	}
}

// TestMovedQueriesReadTheSamePages: the graph searches, the route-unit
// aggregate, Scan and Nearest moved from the live file onto the pinned
// view every query reads through. On a quiescent store that must not
// change what the paper counts: after ResetIO each reads exactly the
// data pages the same operation reads on the live file — and, on the
// paper-scale map behind a 16-page pool, the counts measured before
// the move (re-recorded since for the placement Create's multilevel
// partitioner makes).
func TestMovedQueriesReadTheSamePages(t *testing.T) {
	s, g := paperStore(t, 16)
	defer s.Close()
	f := s.m.File()
	ids := g.NodeIDs()
	bb := g.Bounds()
	rng := rand.New(rand.NewSource(13))
	var pairs [16][2]NodeID
	for i := range pairs {
		pairs[i] = [2]NodeID{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}
	var pts [64]Point
	for i := range pts {
		pts[i] = Point{X: bb.Min.X + rng.Float64()*bb.Width(), Y: bb.Min.Y + rng.Float64()*bb.Height()}
	}
	walks, err := RandomWalkRoutes(g, 8, 21, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	var units [][][2]NodeID
	for _, r := range walks {
		var u [][2]NodeID
		for j := 0; j+1 < len(r); j++ {
			u = append(u, [2]NodeID{r[j], r[j+1]})
		}
		units = append(units, u)
	}
	tour := findTour(t, g)
	facilities := []NodeID{ids[0], ids[len(ids)/2], ids[len(ids)-1]}
	noPath := func(err error) error {
		if errors.Is(err, ErrNoPath) {
			return nil
		}
		return err
	}
	for _, tc := range []struct {
		name       string
		want       int64 // reads measured before the move, re-recorded for Create's multilevel placement, for windows read in page order, for Create's full pages and for A* reading each position once
		view, live func() error
	}{
		{"ShortestPath (Dijkstra)", 1219,
			func() (err error) {
				for _, p := range pairs {
					if _, e := s.ShortestPath(context.Background(), p[0], p[1], 0); noPath(e) != nil {
						err = e
					}
				}
				return
			},
			func() (err error) {
				for _, p := range pairs {
					if _, e := query.ShortestPath(context.Background(), f, p[0], p[1], 0); noPath(e) != nil {
						err = e
					}
				}
				return
			}},
		{"ShortestPath (A*)", 1018,
			func() (err error) {
				for _, p := range pairs {
					if _, e := s.ShortestPath(context.Background(), p[0], p[1], 0.8); noPath(e) != nil {
						err = e
					}
				}
				return
			},
			func() (err error) {
				for _, p := range pairs {
					if _, e := query.ShortestPath(context.Background(), f, p[0], p[1], 0.8); noPath(e) != nil {
						err = e
					}
				}
				return
			}},
		{"EvaluateTour", 1,
			func() error { _, err := s.EvaluateTour(context.Background(), tour); return err },
			func() error { _, err := query.EvaluateTour(context.Background(), f, tour); return err }},
		{"LocationAllocation", 293,
			func() error { _, _, _, err := s.LocationAllocation(context.Background(), facilities); return err },
			func() error {
				_, _, _, err := query.LocationAllocation(context.Background(), f, facilities)
				return err
			}},
		{"EvaluateRouteUnit", 19,
			func() (err error) {
				for _, u := range units {
					if _, e := s.EvaluateRouteUnit(context.Background(), "u", u); e != nil {
						err = e
					}
				}
				return
			},
			func() (err error) {
				for _, u := range units {
					if _, e := f.EvaluateRouteUnit(context.Background(), "u", u); e != nil {
						err = e
					}
				}
				return
			}},
		{"Scan", 60,
			func() error { return s.Scan(func(*Record) bool { return true }) },
			func() error { return f.Scan(func(*Record) bool { return true }) }},
		{"Nearest", 125,
			func() (err error) {
				for _, p := range pts {
					if _, e := s.Nearest(context.Background(), p, 5); e != nil {
						err = e
					}
				}
				return
			},
			func() (err error) {
				for _, p := range pts {
					if _, e := f.Nearest(context.Background(), p, 5); e != nil {
						err = e
					}
				}
				return
			}},
	} {
		reads := func(op func() error) int64 {
			t.Helper()
			if err := s.ResetIO(); err != nil {
				t.Fatal(err)
			}
			if err := op(); err != nil {
				t.Fatalf("%s: %v", tc.name, err)
			}
			return s.IO().Reads
		}
		view, live := reads(tc.view), reads(tc.live)
		if view != live || view != tc.want {
			t.Errorf("%s reads %d data pages on the pinned view, %d on the live file, %d before the move",
				tc.name, view, live, tc.want)
		}
	}
}

// TestStoreCreatesWithMultilevel: a store's static create clusters with
// the multilevel partitioner. On a 64×64 map its pages are exactly the
// groups partition.ClusterNodesIntoPagesOpts makes under Multilevel with
// the seed the store derives from Options.Seed, and not the ratio-cut
// groups.
func TestStoreCreatesWithMultilevel(t *testing.T) {
	opts := MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 64, 64
	g, err := RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	const seed = 5
	s, err := Open(Options{PageSize: 2048, Seed: seed})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	byPage := map[storage.PageID][]NodeID{}
	for id, pid := range s.Placement() {
		byPage[pid] = append(byPage[pid], id)
	}
	got := make([][]NodeID, 0, len(byPage))
	for _, ids := range byPage {
		got = append(got, ids)
	}
	groups := func(part partition.Bipartitioner) [][]NodeID {
		pages, err := partition.ClusterNodesIntoPagesOpts(g, netfile.StoredSizer(g), netfile.PageBudget(2048), part,
			partition.ClusterOptions{Seed: rand.New(rand.NewSource(seed)).Int63()})
		if err != nil {
			t.Fatal(err)
		}
		return pages
	}
	if !samePartition(got, groups(&partition.Multilevel{})) {
		t.Fatal("the store's pages are not the multilevel partitioner's groups")
	}
	if samePartition(got, groups(&partition.RatioCut{})) {
		t.Fatal("the store's pages are also the ratio-cut groups: the check has no teeth")
	}
}

// samePartition reports whether a and b group the same nodes together,
// whatever the order of the groups and of the nodes within them.
func samePartition(a, b [][]NodeID) bool {
	canon := func(groups [][]NodeID) [][]NodeID {
		out := make([][]NodeID, len(groups))
		for i, ids := range groups {
			out[i] = slices.Clone(ids)
			slices.Sort(out[i])
		}
		slices.SortFunc(out, func(x, y []NodeID) int { return cmp.Compare(x[0], y[0]) })
		return out
	}
	return slices.EqualFunc(canon(a), canon(b), slices.Equal)
}
