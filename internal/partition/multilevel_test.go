package partition

import (
	"math/rand"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// undirectedWeight sums each undirected edge's weight once.
func undirectedWeight(w *Weighted) float64 {
	var total float64
	for u := 0; u < w.N(); u++ {
		for _, e := range w.Row(u) {
			if int(e.To) > u {
				total += e.W
			}
		}
	}
	return total
}

func edgeWeightAt(w *Weighted, u, v int) float64 {
	for _, e := range w.Row(u) {
		if int(e.To) == v {
			return e.W
		}
	}
	return 0
}

func TestCoarsenHEMInvariants(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := BuildWeighted(g, unitSize)
	rng := rand.New(rand.NewSource(11))
	var lv level
	coarsenHEM(w, rng, new(scratch), &lv)
	coarse, toCoarse := &lv.w, lv.toCoarse

	if coarse.N() >= w.N() {
		t.Fatalf("coarsening did not shrink: %d -> %d", w.N(), coarse.N())
	}
	if coarse.Total != w.Total {
		t.Fatalf("Total not preserved: %d -> %d", w.Total, coarse.Total)
	}
	// Sizes add up per super-node.
	sizes := make([]int, coarse.N())
	for i, s := range w.Size {
		sizes[toCoarse[i]] += s
	}
	for i, s := range sizes {
		if coarse.Size[i] != s {
			t.Fatalf("super-node %d size = %d, want %d", i, coarse.Size[i], s)
		}
	}
	// Edge weight is preserved minus the contracted (intra-pair) edges.
	var contracted float64
	for u := 0; u < w.N(); u++ {
		for _, e := range w.Row(u) {
			if int(e.To) > u && toCoarse[u] == toCoarse[e.To] {
				contracted += e.W
			}
		}
	}
	fine, crs := undirectedWeight(w), undirectedWeight(coarse)
	if diff := fine - contracted - crs; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("edge weight leak: fine %f - contracted %f != coarse %f", fine, contracted, crs)
	}
	// Parallel fine edges must accumulate onto one coarse edge.
	acc := make(map[[2]int]float64)
	for u := 0; u < w.N(); u++ {
		for _, e := range w.Row(u) {
			cu, cv := int(toCoarse[u]), int(toCoarse[e.To])
			if int(e.To) <= u || cu == cv {
				continue
			}
			if cu > cv {
				cu, cv = cv, cu
			}
			acc[[2]int{cu, cv}] += e.W
		}
	}
	for k, want := range acc {
		if got := edgeWeightAt(coarse, k[0], k[1]); got < want-1e-9 || got > want+1e-9 {
			t.Fatalf("coarse edge %v weight = %f, want %f", k, got, want)
		}
	}
	// Adjacency stays sorted and symmetric.
	for u := 0; u < coarse.N(); u++ {
		row := coarse.Row(u)
		for i, e := range row {
			if i > 0 && row[i-1].To >= e.To {
				t.Fatalf("coarse adjacency of %d unsorted", u)
			}
			if back := edgeWeightAt(coarse, int(e.To), u); back != e.W {
				t.Fatalf("coarse edge %d-%d asymmetric: %f vs %f", u, e.To, e.W, back)
			}
		}
	}
}

func TestMultilevelSeparatesCommunities(t *testing.T) {
	// Two 10x10 grid communities joined by one bridge edge. The
	// multilevel path genuinely coarsens (200 nodes > 2*coarsenTo), and
	// the only sensible ratio cut is the bridge.
	g := graph.NewNetwork()
	community := func(base graph.NodeID) {
		grid := graph.Grid(10, 10)
		for _, id := range grid.NodeIDs() {
			g.AddNode(graph.Node{ID: base + id})
		}
		for _, e := range grid.Edges() {
			g.AddEdge(graph.Edge{From: base + e.From, To: base + e.To, Weight: 1})
		}
	}
	community(0)
	community(1000)
	g.AddEdge(graph.Edge{From: 99, To: 1000, Weight: 1})
	g.AddEdge(graph.Edge{From: 1000, To: 99, Weight: 1})

	w := BuildWeighted(g, unitSize)
	ml := &Multilevel{}
	a, b, err := ml.Bipartition(w, 10, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a)+len(b) != 200 {
		t.Fatalf("node loss: %d + %d", len(a), len(b))
	}
	inA := map[graph.NodeID]bool{}
	for _, id := range a {
		inA[id] = true
	}
	// The two communities must land on opposite sides (allow the side
	// labels to swap).
	if inA[0] == inA[1000] {
		t.Fatalf("communities not separated: node 0 and 1000 on same side")
	}
	side := make([]bool, w.N())
	for i, id := range w.IDs {
		side[i] = !inA[id]
	}
	if cut := w.CutWeight(side); cut > 2+1e-9 {
		t.Fatalf("multilevel cut = %f, want the bridge (weight 2)", cut)
	}
}

func TestMultilevelQualityParity(t *testing.T) {
	// Satellite: on the Fig. 5 map at block size 1k, multilevel CRR must
	// stay within 0.02 of plain ratio-cut — the speedup must not buy a
	// worse layout.
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	size := func(graph.NodeID) int { return 80 }
	pageSize := 1024
	crr := func(p Bipartitioner) float64 {
		pages, err := ClusterNodesIntoPagesOpts(g, size, pageSize, p, ClusterOptions{Workers: 1, Seed: 9})
		if err != nil {
			t.Fatal(err)
		}
		return EvaluatePages(g, pages, size, pageSize).CRR
	}
	rc := crr(&RatioCut{})
	ml := crr(&Multilevel{})
	t.Logf("ratio-cut CRR=%.4f multilevel CRR=%.4f", rc, ml)
	if ml < rc-0.02 {
		t.Fatalf("multilevel CRR %.4f more than 0.02 below ratio-cut %.4f", ml, rc)
	}
}

func TestMultilevelSmallGraphDelegatesToBase(t *testing.T) {
	// At or below minCoarsenable the multilevel partitioner must behave
	// like its base heuristic (identical output for an identical RNG
	// stream).
	g := graph.Grid(4, 4)
	w := BuildWeighted(g, unitSize)
	ml := &Multilevel{}
	a1, b1, err := ml.Bipartition(w, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	a2, b2, err := (&RatioCut{}).Bipartition(w, 4, rand.New(rand.NewSource(3)))
	if err != nil {
		t.Fatal(err)
	}
	if len(a1) != len(a2) || len(b1) != len(b2) {
		t.Fatalf("delegation mismatch: %d/%d vs %d/%d", len(a1), len(b1), len(a2), len(b2))
	}
	for i := range a1 {
		if a1[i] != a2[i] {
			t.Fatalf("side A differs at %d: %d vs %d", i, a1[i], a2[i])
		}
	}
}

// TestMultilevelFillsPages holds the store's Create to full pages on the
// end-to-end fixture map at a 2 KiB page's budget: the page-count split
// and the packing of connected pages make at most 3,600 pages (the
// half-page floor made 4,219, at a mean fill of 0.675 and CRR 0.821),
// none over the budget.
func TestMultilevelFillsPages(t *testing.T) {
	g, sizeOf := fixtureMap(t)
	budget := netfile.PageBudget(2048)
	pages, err := ClusterNodesIntoPagesOpts(g, sizeOf, budget, &Multilevel{}, ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	q := EvaluatePages(g, pages, sizeOf, budget)
	t.Logf("%d pages, CRR %.4f, mean fill %.3f, emptiest %.3f", q.Pages, q.CRR, q.AvgFill, q.MinFill)
	if q.MaxOverflow > 0 {
		t.Errorf("a page is %d bytes over the %d-byte budget", q.MaxOverflow, budget)
	}
	if q.Pages > 3600 {
		t.Errorf("%d pages, want at most 3,600", q.Pages)
	}
	if q.CRR < 0.830 {
		t.Errorf("CRR %.4f, want at least 0.830", q.CRR)
	}
	if q.AvgFill < 0.79 {
		t.Errorf("mean fill %.3f, want at least 0.79", q.AvgFill)
	}
}

// TestMultilevelPagesProperty clusters small seeded maps with random
// record sizes, up to a page's budget for a single record: every node
// lands on exactly one page, every page fits, and the page lists at one
// worker equal those at GOMAXPROCS.
func TestMultilevelPagesProperty(t *testing.T) {
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		o := graph.MinneapolisLikeOpts()
		o.Rows, o.Cols = 4+rng.Intn(28), 4+rng.Intn(28)
		o.Seed = seed
		g, err := graph.RoadMap(o)
		if err != nil {
			t.Fatal(err)
		}
		pageSize := 256 << rng.Intn(4)
		sizes := map[graph.NodeID]int{}
		for _, id := range g.NodeIDs() {
			sizes[id] = 1 + rng.Intn(pageSize/3)
			if rng.Intn(50) == 0 {
				sizes[id] = pageSize
			}
		}
		sizeOf := func(id graph.NodeID) int { return sizes[id] }
		serial, err := ClusterNodesIntoPagesOpts(g, sizeOf, pageSize, &Multilevel{}, ClusterOptions{Workers: 1, Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		parallel, err := ClusterNodesIntoPagesOpts(g, sizeOf, pageSize, &Multilevel{}, ClusterOptions{Seed: seed})
		if err != nil {
			t.Fatal(err)
		}
		if !pagesEqual(serial, parallel) {
			t.Fatalf("seed %d: %d pages at one worker, %d at GOMAXPROCS, or the lists differ", seed, len(serial), len(parallel))
		}
		placed := map[graph.NodeID]bool{}
		for _, pg := range serial {
			bytes := 0
			for _, id := range pg {
				if placed[id] {
					t.Fatalf("seed %d: node %d placed twice", seed, id)
				}
				placed[id] = true
				bytes += sizes[id]
			}
			if len(pg) == 0 || bytes > pageSize {
				t.Fatalf("seed %d: a page of %d records holds %d bytes, page size %d", seed, len(pg), bytes, pageSize)
			}
		}
		if len(placed) != g.NumNodes() {
			t.Fatalf("seed %d: placed %d of %d nodes", seed, len(placed), g.NumNodes())
		}
	}
	// Pages of one byte, so that a page holds one record: no page-count
	// plan rounds to zero bytes a page.
	g := graph.Grid(4, 4)
	oneByte := func(graph.NodeID) int { return 1 }
	pages, err := ClusterNodesIntoPagesOpts(g, oneByte, 1, &Multilevel{}, ClusterOptions{Seed: 1})
	if err != nil || len(pages) != g.NumNodes() {
		t.Fatalf("one-byte pages: %d pages for %d nodes, %v", len(pages), g.NumNodes(), err)
	}
}
