package bench

import (
	"bytes"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// smallSetup shrinks the map so experiment tests run fast while
// preserving the road-map character.
func smallSetup() Setup {
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 16, 16
	return Setup{MapOpts: opts, Seed: 7}
}

// TestNewMethodNames: every method of the comparison answers to its
// name, builds a small map, finds a node in it and counts the page
// traffic it made.
func TestNewMethodNames(t *testing.T) {
	g, err := smallSetup().Network()
	if err != nil {
		t.Fatal(err)
	}
	id := g.NodeIDs()[0]
	for _, name := range MethodNamesWithWDFS {
		m, err := NewMethod(name, 1024, 8, 1)
		if err != nil {
			t.Fatalf("NewMethod(%s): %v", name, err)
		}
		if m.Name() != name {
			t.Errorf("Name = %q, want %q", m.Name(), name)
		}
		if err := m.Build(g); err != nil {
			t.Fatalf("build %s: %v", name, err)
		}
		rec, err := m.File().Find(id)
		if err != nil || rec.ID != id {
			t.Fatalf("%s: Find(%d) = %v, %v", name, id, rec, err)
		}
		if io := m.File().DataIO(); io.Reads+io.Writes == 0 {
			t.Errorf("%s: no page traffic counted after Build and Find", name)
		}
	}
	if _, err := NewMethod("nope", 1024, 8, 1); err == nil {
		t.Fatal("unknown method accepted")
	}
}

func TestFig5ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig5(Fig5Config{Setup: smallSetup(), BlockSizes: []int{512, 1024, 2048}})
	if err != nil {
		t.Fatal(err)
	}
	// CRR increases with block size for every method.
	for _, m := range res.Methods {
		prev := -1.0
		for _, bs := range res.BlockSizes {
			crr := res.CRR[m][bs]
			if crr < prev-0.05 {
				t.Errorf("%s: CRR decreased with block size: %.4f @%d after %.4f", m, crr, bs, prev)
			}
			prev = crr
		}
	}
	// CCAM-S tops every block size; BFS-AM is worst.
	for _, bs := range res.BlockSizes {
		best := res.CRR["ccam-s"][bs]
		for _, m := range res.Methods {
			if m != "ccam-s" && res.CRR[m][bs] > best+0.02 {
				t.Errorf("block %d: %s CRR %.4f beats CCAM-S %.4f", bs, m, res.CRR[m][bs], best)
			}
		}
		if res.CRR["bfs-am"][bs] > res.CRR["dfs-am"][bs] {
			t.Errorf("block %d: BFS-AM should trail DFS-AM", bs)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestTable5ShapeMatchesPaper(t *testing.T) {
	res, err := RunTable5(Table5Config{Setup: smallSetup()})
	if err != nil {
		t.Fatal(err)
	}
	rows := map[string]Table5Row{}
	for _, r := range res.Rows {
		rows[r.Method] = r
	}
	ccam, bfs := rows["ccam-s"], rows["bfs-am"]
	// CCAM wins the CRR-driven operations; BFS-AM loses them.
	if ccam.GetSuccsActual >= bfs.GetSuccsActual {
		t.Errorf("Get-successors: CCAM %.3f should beat BFS %.3f", ccam.GetSuccsActual, bfs.GetSuccsActual)
	}
	if ccam.GetASuccActual >= bfs.GetASuccActual {
		t.Errorf("Get-A-successor: CCAM %.3f should beat BFS %.3f", ccam.GetASuccActual, bfs.GetASuccActual)
	}
	if ccam.DeleteActual >= bfs.DeleteActual {
		t.Errorf("Delete: CCAM %.3f should beat BFS %.3f", ccam.DeleteActual, bfs.DeleteActual)
	}
	// Actual tracks predicted within a reasonable band for the search ops.
	for name, r := range rows {
		if r.GetASuccActual > r.GetASuccPredicted*1.3+0.05 {
			t.Errorf("%s: Get-A-successor actual %.3f far above predicted %.3f", name, r.GetASuccActual, r.GetASuccPredicted)
		}
		if r.GetSuccsActual > r.GetSuccsPredicted*1.3+0.05 {
			t.Errorf("%s: Get-successors actual %.3f far above predicted %.3f", name, r.GetSuccsActual, r.GetSuccsPredicted)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestFig6ShapeMatchesPaper(t *testing.T) {
	res, err := RunFig6(Fig6Config{Setup: smallSetup(), RoutesPerSet: 30})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Methods {
		series := res.PagesPerRoute[m]
		// I/O grows with route length.
		for i := 1; i < len(series); i++ {
			if series[i] < series[i-1]-0.5 {
				t.Errorf("%s: route I/O not increasing: %v", m, series)
			}
		}
	}
	// CCAM variants beat every other method at the longest length.
	last := len(res.RouteLengths) - 1
	ccamBest := res.PagesPerRoute["ccam-s"][last]
	for _, m := range res.Methods {
		if m == "ccam-s" || m == "ccam-d" {
			continue
		}
		if res.PagesPerRoute[m][last] < ccamBest-0.5 {
			t.Errorf("%s (%.2f) beats ccam-s (%.2f) at L=%d", m, res.PagesPerRoute[m][last], ccamBest, res.RouteLengths[last])
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestFig7ShapeMatchesPaper(t *testing.T) {
	// At the paper's scale (215 inserts): on smallSetup's 50 the three
	// policies end within noise of each other.
	res, err := RunFig7(Fig7Config{Setup: DefaultSetup(), Points: 4})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	byPolicy := map[netfile.Policy]Fig7Series{}
	for _, s := range res.Series {
		byPolicy[s.Policy] = s
	}
	lastIO := func(p netfile.Policy) float64 {
		s := byPolicy[p]
		return s.AvgIO[len(s.AvgIO)-1]
	}
	lastCRR := func(p netfile.Policy) float64 {
		s := byPolicy[p]
		return s.CRR[len(s.CRR)-1]
	}
	// Higher order costs much more I/O than first/second order.
	if lastIO(netfile.HigherOrder) <= lastIO(netfile.SecondOrder)*1.3 {
		t.Errorf("higher-order I/O %.2f not clearly above second-order %.2f",
			lastIO(netfile.HigherOrder), lastIO(netfile.SecondOrder))
	}
	// The paper's currency: reorganization I/O buys CRR. First-order ends
	// with the lowest CRR of the three; second-order gets its gain for
	// about first-order's I/O (it refines the pages the insert touched
	// anyway and rewrites them only for a lower cut), and higher-order's
	// extra pages buy more still.
	if lastCRR(netfile.SecondOrder) < lastCRR(netfile.FirstOrder) {
		t.Errorf("second-order CRR %.4f below first-order %.4f",
			lastCRR(netfile.SecondOrder), lastCRR(netfile.FirstOrder))
	}
	if lastIO(netfile.SecondOrder) > lastIO(netfile.FirstOrder)*1.05 {
		t.Errorf("second-order I/O %.2f more than 5%% above first-order %.2f",
			lastIO(netfile.SecondOrder), lastIO(netfile.FirstOrder))
	}
	if lastCRR(netfile.HigherOrder) < lastCRR(netfile.SecondOrder) {
		t.Errorf("higher-order CRR %.4f below second-order %.4f",
			lastCRR(netfile.HigherOrder), lastCRR(netfile.SecondOrder))
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestAblationPartitioners(t *testing.T) {
	res, err := RunAblationPartitioners(smallSetup(), 1024)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 7 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	seen := map[string]bool{}
	for _, row := range res.Rows {
		seen[row.Name] = true
		if row.CRR <= 0.3 || row.CRR > 1 {
			t.Errorf("%s: CRR %.4f out of range", row.Name, row.CRR)
		}
	}
	if !seen["multilevel"] {
		t.Error("multilevel partitioner missing from A1")
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestAblationBufferSweep(t *testing.T) {
	res, err := RunAblationBufferSweep(smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	// More buffers never cost more I/O.
	for _, m := range res.Methods {
		s := res.PagesPerRoute[m]
		for i := 1; i < len(s); i++ {
			if s[i] > s[i-1]+0.25 {
				t.Errorf("%s: I/O grew with pool size: %v", m, s)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestAblationScaleSmall(t *testing.T) {
	res, err := RunAblationScale(smallSetup(), []int{64, 256})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Methods {
		for i, crr := range res.CRR[m] {
			if crr <= 0 || crr > 1 {
				t.Errorf("%s @%d nodes: CRR %.4f", m, res.Sizes[i], crr)
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestSearchPaths(t *testing.T) {
	res, err := RunSearchPaths(SearchPathsConfig{Setup: smallSetup(), Pairs: 10})
	if err != nil {
		t.Fatal(err)
	}
	// A* reads at most as much as Dijkstra; CCAM reads less than BFS.
	for _, m := range res.Methods {
		if res.AStarReads[m] > res.DijkstraReads[m]+0.5 {
			t.Errorf("%s: A* (%.1f) above Dijkstra (%.1f)", m, res.AStarReads[m], res.DijkstraReads[m])
		}
	}
	if res.DijkstraReads["ccam-s"] >= res.DijkstraReads["bfs-am"] {
		t.Errorf("ccam-s search I/O %.1f should beat bfs-am %.1f",
			res.DijkstraReads["ccam-s"], res.DijkstraReads["bfs-am"])
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestFig7WithLazyPolicy(t *testing.T) {
	res, err := RunFig7(Fig7Config{
		Setup:    smallSetup(),
		Points:   3,
		Policies: []netfile.Policy{netfile.FirstOrder, netfile.Lazy, netfile.HigherOrder},
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Series) != 3 {
		t.Fatalf("series = %d", len(res.Series))
	}
	byPolicy := map[netfile.Policy]Fig7Series{}
	for _, s := range res.Series {
		byPolicy[s.Policy] = s
	}
	last := func(p netfile.Policy) float64 {
		s := byPolicy[p]
		return s.AvgIO[len(s.AvgIO)-1]
	}
	if last(netfile.Lazy) >= last(netfile.HigherOrder) {
		t.Errorf("lazy I/O %.2f should stay below higher-order %.2f",
			last(netfile.Lazy), last(netfile.HigherOrder))
	}
}

func TestAblationTopology(t *testing.T) {
	res, err := RunAblationTopology(smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Topologies) != 3 {
		t.Fatalf("topologies = %v", res.Topologies)
	}
	// CCAM wins (or ties) on every topology; BFS is always worst.
	for _, topo := range res.Topologies {
		ccam := res.CRR[topo]["ccam-s"]
		for _, m := range res.Methods {
			if m == "ccam-s" {
				continue
			}
			if res.CRR[topo][m] > ccam+0.03 {
				t.Errorf("%s: %s CRR %.4f beats ccam-s %.4f", topo, m, res.CRR[topo][m], ccam)
			}
		}
		if res.CRR[topo]["bfs-am"] > res.CRR[topo]["ccam-s"] {
			t.Errorf("%s: bfs beats ccam", topo)
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

func TestMixedWorkload(t *testing.T) {
	res, err := RunMixedWorkload(MixedConfig{Setup: smallSetup(), Ops: 120, UpdateFracs: []float64{0, 0.4}})
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range res.Methods {
		for i := range res.UpdateFracs {
			if v := res.PagesPerOp[m][i]; v <= 0 {
				t.Errorf("%s: implausible cost %f", m, v)
			}
			if crr := res.FinalCRR[m][i]; crr <= 0 || crr > 1 {
				t.Errorf("%s: final CRR %f", m, crr)
			}
		}
	}
	// CCAM stays the cheapest at every update fraction (single-page
	// travel-time refreshes can lower the average, so the per-method
	// series need not be monotone — only the ordering is asserted).
	for i := range res.UpdateFracs {
		if res.PagesPerOp["ccam-s"][i] >= res.PagesPerOp["grid-file"][i] {
			t.Errorf("at frac %.2f: ccam-s %v should beat grid-file %v",
				res.UpdateFracs[i], res.PagesPerOp["ccam-s"][i], res.PagesPerOp["grid-file"][i])
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}

// TestGoldenDeterminism pins the paper-scale headline number exactly:
// the experiments are seeded, so CCAM-S's CRR at 1 KiB must reproduce
// bit for bit across runs and versions (a drift means an unintended
// behaviour change). It is BENCH_paper.json's fig5/ccam-s/block=1024
// cell; `ccam-bench -exp all -check BENCH_paper.json` pins the rest.
func TestGoldenDeterminism(t *testing.T) {
	if testing.Short() {
		t.Skip("paper-scale build")
	}
	setup := DefaultSetup()
	g, err := setup.Network()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 1077 || g.NumEdges() != 3045 {
		t.Fatalf("benchmark map drifted: %d nodes %d edges (want 1077/3045)", g.NumNodes(), g.NumEdges())
	}
	m, err := buildMethod("ccam-s", g, 1024, 64, setup.Seed)
	if err != nil {
		t.Fatal(err)
	}
	const want = 0.7300492610837438
	if crr := StatsOf(m, g).CRR; crr != want {
		t.Fatalf("paper-scale CCAM-S CRR drifted to %v, want %v", crr, want)
	}
}

func TestAblationSpatialOrder(t *testing.T) {
	res, err := RunAblationSpatialOrder(smallSetup())
	if err != nil {
		t.Fatal(err)
	}
	for _, bs := range res.BlockSizes {
		// CCAM beats every proximity ordering at every block size.
		for _, m := range res.Methods {
			if m == "ccam-s" {
				continue
			}
			if res.CRR[m][bs] > res.CRR["ccam-s"][bs]+0.02 {
				t.Errorf("block %d: %s %.4f beats ccam-s %.4f", bs, m, res.CRR[m][bs], res.CRR["ccam-s"][bs])
			}
		}
	}
	var buf bytes.Buffer
	res.Print(&buf)
	if buf.Len() == 0 {
		t.Fatal("empty print output")
	}
}
