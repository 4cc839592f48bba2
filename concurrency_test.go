package ccam

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
)

// builtStore opens a store over the small test map and loads it.
func builtStore(t *testing.T, opts Options) (*Store, *Network) {
	t.Helper()
	g := testMap(t)
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	return s, g
}

// TestConcurrentReaders races the full query surface — Find,
// GetSuccessors, EvaluateRoute, RangeQuery, Nearest, Has — across 8
// goroutines and checks every result for correctness, not just the
// absence of errors. Run with -race to verify the read path shares the
// store without data races.
func TestConcurrentReaders(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 5})
	ids := g.NodeIDs()
	routes, err := RandomWalkRoutes(g, 32, 8, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	bb := g.Bounds()
	window := NewRect(
		Point{X: bb.Min.X + bb.Width()*0.3, Y: bb.Min.Y + bb.Height()*0.3},
		Point{X: bb.Min.X + bb.Width()*0.7, Y: bb.Min.Y + bb.Height()*0.7},
	)

	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(100 + w)))
			for i := 0; i < 150; i++ {
				switch i % 5 {
				case 0:
					id := ids[rng.Intn(len(ids))]
					rec, err := s.Find(context.Background(), id)
					if err != nil {
						errCh <- err
						return
					}
					if rec.ID != id {
						errCh <- errors.New("Find returned wrong record")
						return
					}
				case 1:
					id := ids[rng.Intn(len(ids))]
					succs, err := s.GetSuccessors(context.Background(), id)
					if err != nil {
						errCh <- err
						return
					}
					if len(succs) != len(g.SuccessorEdges(id)) {
						errCh <- errors.New("GetSuccessors returned wrong count")
						return
					}
				case 2:
					r := routes[rng.Intn(len(routes))]
					agg, err := s.EvaluateRoute(context.Background(), r)
					if err != nil {
						errCh <- err
						return
					}
					if agg.Nodes != len(r) {
						errCh <- errors.New("EvaluateRoute returned wrong node count")
						return
					}
				case 3:
					recs, err := s.RangeQuery(context.Background(), window)
					if err != nil {
						errCh <- err
						return
					}
					for _, rec := range recs {
						if !window.Contains(rec.Pos) {
							errCh <- errors.New("RangeQuery returned record outside window")
							return
						}
					}
				case 4:
					id := ids[rng.Intn(len(ids))]
					ok, err := s.Has(context.Background(), id)
					if err != nil {
						errCh <- err
						return
					}
					if !ok {
						errCh <- errors.New("Has reported a stored node absent")
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

// TestReadersWithWriter races parallel readers — every query of the
// facade — against a writer that churns one node (Delete + Insert
// under the second-order policy), refreshes edge costs and pokes the
// reorganizer. Readers avoid the churned node, so every read must
// succeed even while pages reorganize underneath them.
func TestReadersWithWriter(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 6})
	s.reorg.drop = 1e-9 // any decay triggers the writer's next Poke
	ids := g.NodeIDs()
	churn := ids[len(ids)/2]
	stable := make([]NodeID, 0, len(ids)-1)
	for _, id := range ids {
		if id != churn {
			stable = append(stable, id)
		}
	}
	all, err := RandomWalkRoutes(g, 64, 6, rand.New(rand.NewSource(9)))
	if err != nil {
		t.Fatal(err)
	}
	var routes []Route
	for _, r := range all {
		hitsChurn := false
		for _, id := range r {
			if id == churn {
				hitsChurn = true
				break
			}
		}
		if !hitsChurn {
			routes = append(routes, r)
		}
	}
	if len(routes) == 0 {
		t.Fatal("no routes avoid the churned node; enlarge the map")
	}
	var safeEdge Edge
	found := false
	for _, e := range g.Edges() {
		if e.From != churn && e.To != churn {
			safeEdge, found = e, true
			break
		}
	}
	if !found {
		t.Fatal("no edge avoids the churned node")
	}
	bb := g.Bounds()
	window := NewRect(
		Point{X: bb.Min.X, Y: bb.Min.Y},
		Point{X: bb.Min.X + bb.Width()*0.5, Y: bb.Min.Y + bb.Height()*0.5},
	)

	tour := findTour(t, g)
	unit := [][2]NodeID{{safeEdge.From, safeEdge.To}}

	var wg sync.WaitGroup
	errCh := make(chan error, 9)
	// Writer: churn one node and refresh a travel time, 40 rounds.
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 40; i++ {
			op, err := InsertOpFromNode(g, churn)
			if err != nil {
				errCh <- err
				return
			}
			if err := s.Apply(context.Background(), new(Batch).Delete(churn, SecondOrder)); err != nil {
				errCh <- err
				return
			}
			if err := s.Apply(context.Background(), new(Batch).Insert(op, SecondOrder)); err != nil {
				errCh <- err
				return
			}
			if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(safeEdge.From, safeEdge.To, float32(safeEdge.Cost))); err != nil {
				errCh <- err
				return
			}
			if err := s.Poke(); err != nil {
				errCh <- err
				return
			}
		}
	}()
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(200 + w)))
			for i := 0; i < 120; i++ {
				switch i % 10 {
				case 0:
					id := stable[rng.Intn(len(stable))]
					rec, err := s.Find(context.Background(), id)
					if err != nil {
						errCh <- err
						return
					}
					if rec.ID != id {
						errCh <- errors.New("Find returned wrong record during churn")
						return
					}
				case 1:
					r := routes[rng.Intn(len(routes))]
					if _, err := s.EvaluateRoute(context.Background(), r); err != nil {
						errCh <- err
						return
					}
				case 2:
					if _, err := s.RangeQuery(context.Background(), window); err != nil {
						errCh <- err
						return
					}
				case 3:
					if _, err := s.Nearest(context.Background(), bb.Min, 3); err != nil {
						errCh <- err
						return
					}
				case 4:
					src, dst := stable[rng.Intn(len(stable))], stable[rng.Intn(len(stable))]
					if _, err := s.ShortestPath(context.Background(), src, dst, 0); err != nil && !errors.Is(err, ErrNoPath) {
						errCh <- err
						return
					}
				case 5:
					src, dst := stable[rng.Intn(len(stable))], stable[rng.Intn(len(stable))]
					if _, err := s.ShortestPath(context.Background(), src, dst, 0.5); err != nil && !errors.Is(err, ErrNoPath) {
						errCh <- err
						return
					}
				case 6:
					if _, err := s.EvaluateTour(context.Background(), tour); err != nil {
						errCh <- err
						return
					}
				case 7:
					if _, _, _, err := s.LocationAllocation(context.Background(), stable[:2]); err != nil {
						errCh <- err
						return
					}
				case 8:
					if _, err := s.EvaluateRouteUnit(context.Background(), "u", unit); err != nil {
						errCh <- err
						return
					}
				case 9:
					// The churned node is between a delete and an insert, or
					// stored: a scan sees one consistent state or the other.
					n := 0
					if err := s.Scan(func(*Record) bool { n++; return true }); err != nil {
						errCh <- err
						return
					}
					if n != g.NumNodes() && n != g.NumNodes()-1 {
						errCh <- fmt.Errorf("Scan saw %d records of %d", n, g.NumNodes())
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
	// The file must still be exact after the churn.
	if s.Len() != g.NumNodes() {
		t.Fatalf("store has %d nodes, want %d", s.Len(), g.NumNodes())
	}
}

func TestFindBatch(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 3})
	ids := g.NodeIDs()
	recs, err := s.FindBatch(context.Background(), ids)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != len(ids) {
		t.Fatalf("got %d records, want %d", len(recs), len(ids))
	}
	for i, rec := range recs {
		if rec == nil || rec.ID != ids[i] {
			t.Fatalf("recs[%d] is not the record of node %d", i, ids[i])
		}
	}
	// An unknown id stops the batch with ErrNotFound, and the error
	// names the unknown id at the lowest index, whatever the pages or
	// the ids' order.
	bad := append([]NodeID{}, ids[:4]...)
	bad = append(bad, 1<<30+9)
	bad = append(bad, ids[4:8]...)
	bad = append(bad, 1<<30+1, ids[0])
	_, err = s.FindBatch(context.Background(), bad)
	if !errors.Is(err, ErrNotFound) || !strings.HasSuffix(err.Error(), fmt.Sprint(NodeID(1<<30+9))) {
		t.Fatalf("batch with unknown ids: got %v, want ErrNotFound for %d", err, NodeID(1<<30+9))
	}
	// The empty batch is a no-op.
	empty, err := s.FindBatch(context.Background(), nil)
	if err != nil || len(empty) != 0 {
		t.Fatalf("empty batch: got %v, %v", empty, err)
	}
}

func TestFindBatchCancellation(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 3})
	ids := g.NodeIDs()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.FindBatch(ctx, ids); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled FindBatch: got %v, want context.Canceled", err)
	}
	if _, err := s.EvaluateRoutes(ctx, []Route{{ids[0]}}); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled EvaluateRoutes: got %v, want context.Canceled", err)
	}
}

func TestEvaluateRoutesMatchesSerial(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 4})
	routes, err := RandomWalkRoutes(g, 24, 10, rand.New(rand.NewSource(11)))
	if err != nil {
		t.Fatal(err)
	}
	batch, err := s.EvaluateRoutes(context.Background(), routes)
	if err != nil {
		t.Fatal(err)
	}
	for i, r := range routes {
		want, err := s.EvaluateRoute(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if batch[i] != want {
			t.Fatalf("route %d: batch %+v != serial %+v", i, batch[i], want)
		}
	}
}

func TestRangeQueryCtx(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 4})
	bb := g.Bounds()
	window := NewRect(bb.Min, Point{X: bb.Min.X + bb.Width()*0.6, Y: bb.Min.Y + bb.Height()*0.6})
	want, err := s.RangeQuery(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	got, err := s.RangeQuery(context.Background(), window)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("RangeQueryCtx returned %d records, RangeQuery %d", len(got), len(want))
	}
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := s.RangeQuery(ctx, window); !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled RangeQueryCtx: got %v, want context.Canceled", err)
	}
}

func TestHasSurfacesErrors(t *testing.T) {
	s, err := Open(Options{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	// Unbuilt store: Has errors.
	if _, err := s.Has(context.Background(), 1); err == nil {
		t.Fatal("Has on unbuilt store returned nil error")
	}
	g := testMap(t)
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	id := g.NodeIDs()[0]
	if ok, err := s.Has(context.Background(), id); err != nil || !ok {
		t.Fatalf("Has(%d) = %v, %v; want true, nil", id, ok, err)
	}
	if ok, err := s.Has(context.Background(), 1<<30); err != nil || ok {
		t.Fatalf("Has(missing) = %v, %v; want false, nil", ok, err)
	}
}

func TestIOStatsString(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 2})
	if _, err := s.Find(context.Background(), g.NodeIDs()[0]); err != nil {
		t.Fatal(err)
	}
	got := s.IO().String()
	for _, want := range []string{"reads=", "writes=", "allocs=", "frees=", "total="} {
		if !strings.Contains(got, want) {
			t.Fatalf("IOStats.String() = %q, missing %q", got, want)
		}
	}
}

// TestVerifyBesideSnapshotReaders runs Store.Verify after every write
// of a node churn — each node deleted and stored again under all four
// policies, and a reorganization round — while two readers scan pinned
// snapshots: under -race (CI repeats it), Verify shares the pool, the
// Z-order index and the PAG summary with them.
func TestVerifyBesideSnapshotReaders(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, PoolPages: 16, Seed: 5, Metrics: true})
	s.reorg.drop = 1e-9
	ids := g.NodeIDs()
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for ctx.Err() == nil {
				snap, err := s.Snapshot()
				if err == nil {
					_, err = snap.RangeQueryCtx(ctx, g.Bounds())
					snap.Close()
				}
				if err != nil && ctx.Err() == nil {
					t.Error(err)
				}
			}
		}()
	}
	for i := 0; i < 24; i++ {
		id, policy := ids[i*len(ids)/24], Policy(i%4)
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		for _, step := range []func() error{
			func() error { return s.Apply(context.Background(), new(Batch).Delete(id, policy)) }, s.Verify,
			func() error { return s.Apply(context.Background(), new(Batch).Insert(op, policy)) }, s.Verify,
			s.Poke, s.Verify,
		} {
			if err := step(); err != nil {
				t.Fatalf("node %d: %v", id, err)
			}
		}
	}
	cancel()
	wg.Wait()
}
