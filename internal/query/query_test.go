package query

import (
	"container/heap"
	"context"
	"errors"
	"math"
	"math/rand"
	"testing"

	"ccam/internal/ccam"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

func buildFile(t *testing.T, g *graph.Network) *netfile.File {
	t.Helper()
	m, err := ccam.New(ccam.Config{File: netfile.Options{PageSize: 1024, PoolPages: 64}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		t.Fatal(err)
	}
	return m.File()
}

func roadMap(t *testing.T) *graph.Network {
	t.Helper()
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 18, 18
	g, err := graph.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// refDijkstra is an in-memory reference implementation.
func refDijkstra(g *graph.Network, src, dst graph.NodeID) (float64, bool) {
	dist := map[graph.NodeID]float64{src: 0}
	done := map[graph.NodeID]bool{}
	q := &pq{}
	heap.Push(q, pqItem{id: src})
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		if cur.id == dst {
			return cur.dist, true
		}
		for _, e := range g.SuccessorEdges(cur.id) {
			nd := cur.dist + e.Cost
			if old, ok := dist[e.To]; !ok || nd < old {
				dist[e.To] = nd
				heap.Push(q, pqItem{id: e.To, dist: nd, rank: nd})
			}
		}
	}
	return 0, false
}

func TestDijkstraMatchesReference(t *testing.T) {
	g := roadMap(t)
	f := buildFile(t, g)
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(2))
	for trial := 0; trial < 25; trial++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		want, reachable := refDijkstra(g, src, dst)
		got, err := ShortestPath(context.Background(), f, src, dst, 0)
		if !reachable {
			if !errors.Is(err, ErrNoPath) {
				t.Fatalf("unreachable pair %d->%d: err = %v", src, dst, err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("Dijkstra(%d,%d): %v", src, dst, err)
		}
		// Stored edge costs are float32, so compare with a relative
		// tolerance.
		if math.Abs(got.Cost-want) > 1e-4*(1+want) {
			t.Fatalf("Dijkstra(%d,%d) = %f, want %f", src, dst, got.Cost, want)
		}
		// The returned path is valid and has the claimed cost.
		if err := got.Nodes.Validate(g); err != nil {
			t.Fatal(err)
		}
		var sum float64
		for i := 0; i+1 < len(got.Nodes); i++ {
			e, err := g.Edge(got.Nodes[i], got.Nodes[i+1])
			if err != nil {
				t.Fatal(err)
			}
			sum += e.Cost
		}
		if math.Abs(sum-got.Cost) > 1e-4*(1+sum) {
			t.Fatalf("path cost %f != reported %f", sum, got.Cost)
		}
	}
}

func TestAStarMatchesDijkstraAndExpandsLess(t *testing.T) {
	g := roadMap(t)
	f := buildFile(t, g)
	// Edge costs are distance * [0.8, 1.2], so 0.8 per unit distance is
	// an admissible lower bound.
	const minCostPerUnit = 0.8
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(3))
	var dTotal, aTotal int
	for trial := 0; trial < 20; trial++ {
		src := ids[rng.Intn(len(ids))]
		dst := ids[rng.Intn(len(ids))]
		d, errD := ShortestPath(context.Background(), f, src, dst, 0)
		a, errA := ShortestPath(context.Background(), f, src, dst, minCostPerUnit)
		if (errD == nil) != (errA == nil) {
			t.Fatalf("reachability disagreement: %v vs %v", errD, errA)
		}
		if errD != nil {
			continue
		}
		if math.Abs(d.Cost-a.Cost) > 1e-6 {
			t.Fatalf("A* cost %f != Dijkstra %f for %d->%d", a.Cost, d.Cost, src, dst)
		}
		dTotal += d.Expanded
		aTotal += a.Expanded
	}
	if aTotal >= dTotal {
		t.Errorf("A* expanded %d nodes, Dijkstra %d; heuristic bought nothing", aTotal, dTotal)
	}
	t.Logf("expansions: dijkstra=%d astar=%d", dTotal, aTotal)
}

func TestAStarZeroHeuristicFallsBack(t *testing.T) {
	g := roadMap(t)
	f := buildFile(t, g)
	ids := g.NodeIDs()
	src, dst := ids[0], ids[len(ids)-1]
	want, reachable := refDijkstra(g, src, dst)
	// Without a positive lower bound there is no heuristic: 0 and a
	// negative bound both run Dijkstra, expansion for expansion.
	d, err1 := ShortestPath(context.Background(), f, src, dst, 0)
	a, err2 := ShortestPath(context.Background(), f, src, dst, -1)
	if (err1 == nil) != reachable || (err2 == nil) != reachable {
		t.Fatalf("fallback disagreement: %v, %v; reachable %v", err1, err2, reachable)
	}
	if !reachable {
		return
	}
	if math.Abs(d.Cost-want) > 1e-4*(1+want) || a.Cost != d.Cost || a.Expanded != d.Expanded {
		t.Fatalf("fallback = (%f, %d expanded), 0 = (%f, %d), reference %f", a.Cost, a.Expanded, d.Cost, d.Expanded, want)
	}
}

func TestShortestPathErrors(t *testing.T) {
	g := roadMap(t)
	f := buildFile(t, g)
	if _, err := ShortestPath(context.Background(), f, 999999, g.NodeIDs()[0], 0); !errors.Is(err, netfile.ErrNotFound) {
		t.Fatalf("missing src = %v", err)
	}
	if _, err := ShortestPath(context.Background(), f, g.NodeIDs()[0], 999999, 0); !errors.Is(err, netfile.ErrNotFound) {
		t.Fatalf("missing dst = %v", err)
	}
	// Trivial path.
	p, err := ShortestPath(context.Background(), f, g.NodeIDs()[0], g.NodeIDs()[0], 0)
	if err != nil || p.Cost != 0 || len(p.Nodes) != 1 {
		t.Fatalf("self path = %+v, %v", p, err)
	}
}

func TestEvaluateTour(t *testing.T) {
	g := graph.Grid(3, 3)
	f := buildFile(t, g)
	// A square tour around the grid: 0 -> 1 -> 4 -> 3 -> (0).
	agg, err := EvaluateTour(context.Background(), f, graph.Route{0, 1, 4, 3})
	if err != nil {
		t.Fatal(err)
	}
	if !agg.Closed || agg.Nodes != 5 || agg.TotalCost != 4 {
		t.Fatalf("tour aggregate = %+v", agg)
	}
	// Too short.
	if _, err := EvaluateTour(context.Background(), f, graph.Route{0, 1}); !errors.Is(err, ErrInvalidTour) {
		t.Fatalf("short tour = %v", err)
	}
	// Repeating the start is rejected.
	if _, err := EvaluateTour(context.Background(), f, graph.Route{0, 1, 4, 3, 0}); !errors.Is(err, ErrInvalidTour) {
		t.Fatalf("repeated start = %v", err)
	}
	// Tour whose closing edge is missing.
	if _, err := EvaluateTour(context.Background(), f, graph.Route{0, 1, 2}); err == nil {
		t.Fatal("unclosable tour accepted")
	}
}

func TestLocationAllocation(t *testing.T) {
	g := roadMap(t)
	f := buildFile(t, g)
	ids := g.NodeIDs()
	facilities := []graph.NodeID{ids[0], ids[len(ids)/2], ids[len(ids)-1]}
	allocs, total, worst, err := LocationAllocation(context.Background(), f, facilities)
	if err != nil {
		t.Fatal(err)
	}
	if len(allocs) == 0 || total <= 0 || worst <= 0 {
		t.Fatalf("allocs=%d total=%f worst=%f", len(allocs), total, worst)
	}
	facSet := map[graph.NodeID]bool{}
	for _, fac := range facilities {
		facSet[fac] = true
	}
	bySelf := 0
	for _, a := range allocs {
		if !facSet[a.Facility] {
			t.Fatalf("allocation to non-facility %d", a.Facility)
		}
		if facSet[a.Demand] {
			if a.Cost != 0 || a.Facility != a.Demand {
				t.Fatalf("facility %d not allocated to itself: %+v", a.Demand, a)
			}
			bySelf++
		}
		// Spot-check optimality: allocation cost equals the min
		// reference distance over facilities.
		if a.Demand%97 == 0 {
			best := math.Inf(1)
			for _, fac := range facilities {
				if d, ok := refDijkstra(g, fac, a.Demand); ok && d < best {
					best = d
				}
			}
			if math.Abs(best-a.Cost) > 1e-4*(1+best) {
				t.Fatalf("demand %d: cost %f, reference %f", a.Demand, a.Cost, best)
			}
		}
	}
	if bySelf != len(facilities) {
		t.Fatalf("facilities self-allocated: %d of %d", bySelf, len(facilities))
	}
	// No facilities is an error.
	if _, _, _, err := LocationAllocation(context.Background(), f, nil); !errors.Is(err, ErrNoFacilities) {
		t.Fatalf("empty facilities = %v", err)
	}
	if _, _, _, err := LocationAllocation(context.Background(), f, []graph.NodeID{999999}); !errors.Is(err, netfile.ErrNotFound) {
		t.Fatalf("missing facility = %v", err)
	}
}

func TestSearchIOBenefitsFromClustering(t *testing.T) {
	// Shortest-path I/O over a CCAM file should be well below the same
	// search over a BFS-ordered file (the paper's motivation for
	// Get-successors support).
	g := roadMap(t)
	cf := buildFile(t, g)
	ids := g.NodeIDs()

	measure := func(f *netfile.File) int64 {
		var reads int64
		rng := rand.New(rand.NewSource(5))
		for trial := 0; trial < 10; trial++ {
			src := ids[rng.Intn(len(ids))]
			dst := ids[rng.Intn(len(ids))]
			if err := f.ResetIO(); err != nil {
				t.Fatal(err)
			}
			if _, err := ShortestPath(context.Background(), f, src, dst, 0); err != nil && !errors.Is(err, ErrNoPath) {
				t.Fatal(err)
			}
			reads += f.DataIO().Reads
		}
		return reads
	}
	ccamReads := measure(cf)
	if ccamReads == 0 {
		t.Fatal("no I/O measured")
	}
	t.Logf("ccam reads=%d", ccamReads)
}
