package plan

import (
	"errors"
	"strings"
	"testing"

	"ccam/internal/ccam"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query/lang"
)

// buildTestFile builds a real stored file over a synthetic road map,
// for the catalog-from-file test.
func buildTestFile(t *testing.T) *netfile.File {
	t.Helper()
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 10, 10
	g, err := graph.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ccam.New(ccam.Config{File: netfile.Options{PageSize: 1024, PoolPages: 64}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		t.Fatal(err)
	}
	return m.File()
}

// testCatalog opens a catalog on a small chain network bulk-loaded
// into a real file: 8 nodes, nodes 1-4 on one page and 5-8 on another,
// node i at (i, 0), edges 1→2, 1→3, 2→3, 3→4, 4→5, ..., 7→8. The
// spatial probe filters by true position (no false positives), so
// window candidate sets are easy to reason about. Stats are pinned,
// not derived.
func testCatalog(t *testing.T) *Catalog {
	t.Helper()
	g := graph.NewNetwork()
	pos := map[graph.NodeID]geom.Point{}
	for i := graph.NodeID(1); i <= 8; i++ {
		pos[i] = geom.Point{X: float64(i), Y: 0}
		if err := g.AddNode(graph.Node{ID: i, Pos: pos[i]}); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range []graph.Edge{
		{From: 1, To: 2, Cost: 1}, {From: 1, To: 3, Cost: 2}, {From: 2, To: 3, Cost: 1},
		{From: 3, To: 4, Cost: 1}, {From: 4, To: 5, Cost: 1}, {From: 5, To: 6, Cost: 1},
		{From: 6, To: 7, Cost: 1}, {From: 7, To: 8, Cost: 1},
	} {
		if err := g.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	f, err := netfile.Create(netfile.Options{PageSize: 1024, Bounds: g.Bounds()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, [][]graph.NodeID{{1, 2, 3, 4}, {5, 6, 7, 8}}); err != nil {
		t.Fatal(err)
	}
	c, err := NewCatalog(f)
	if err != nil {
		t.Fatal(err)
	}
	c.Stats = Stats{
		Alpha: 0.5, AvgA: 2, Lambda: 4, Gamma: 4,
		Nodes: 8, Pages: 2,
	}
	c.probe = func(rect geom.Rect, fn func(graph.NodeID) bool) error {
		for i := graph.NodeID(1); i <= 8; i++ {
			if rect.Contains(pos[i]) {
				if !fn(i) {
					return nil
				}
			}
		}
		return nil
	}
	return c
}

func mustPlan(t *testing.T, c *Catalog, src string) *Plan {
	t.Helper()
	q, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	p, err := Build(c, q)
	if err != nil {
		t.Fatalf("Build(%q): %v", src, err)
	}
	return p
}

func TestPlanPicksDistinctPaths(t *testing.T) {
	c := testCatalog(t)
	cases := []struct {
		src       string
		wantPath  AccessPath
		wantPages int
	}{
		{"FIND 7", PathBTreePoint, 1},
		{"FIND 999", PathBTreePoint, 0},
		// Candidates {1,2,3}, all on page 0: index path wins.
		{"WINDOW (0.5, -1, 3.5, 1)", PathZRange, 1},
		// Candidates are every node, both pages: the sequential scan
		// is effectively cheaper.
		{"WINDOW (0, -1, 9, 1)", PathPAGScan, 2},
		// At α = 0.5 a depth-1 ball of 1 + |A| = 3 nodes is expected on
		// 1 + 2·(1-α) = 2 pages, the whole file: the scan is cheaper.
		{"NEIGHBORS 1 DEPTH 1", PathPAGScan, 2},
		// Deeper balls are capped at the file's 2 pages: scan wins.
		{"NEIGHBORS 1 DEPTH 4", PathPAGScan, 2},
		{"ROUTE 1, 2, 3", PathSuccChain, 1},
		{"ROUTE 1, 2, 3, 4, 5, 6", PathSuccChain, 2},
		// 1 and 4 share page 0: the page-graph ball is that page.
		{"PATH 1 TO 4", PathSuccExpand, 1},
	}
	for _, tc := range cases {
		p := mustPlan(t, c, tc.src)
		if p.Chosen.Path != tc.wantPath {
			t.Errorf("%q: chose %s, want %s", tc.src, p.Chosen.Path, tc.wantPath)
		}
		if p.Chosen.Pages != tc.wantPages {
			t.Errorf("%q: predicted %d pages, want %d", tc.src, p.Chosen.Pages, tc.wantPages)
		}
	}
	// At α = 0.9 the same ball is expected on 1 + 2·0.1 = 1.2 pages, which
	// rounds to the source's page: expansion beats the scan.
	c.Stats.Alpha = 0.9
	if p := mustPlan(t, c, "NEIGHBORS 1 DEPTH 1"); p.Chosen.Path != PathSuccExpand || p.Chosen.Pages != 1 {
		t.Errorf("NEIGHBORS 1 DEPTH 1 at α 0.9: chose %s for %d pages, want %s for 1", p.Chosen.Path, p.Chosen.Pages, PathSuccExpand)
	}
}

func TestPlanRouteStopsAtBrokenHop(t *testing.T) {
	c := testCatalog(t)
	// 1→3 is an edge, 3→2 is not: the executor reads {1, 3} and then
	// fails. The summary keeps no adjacency, so the plan cannot see that:
	// it predicts the stored prefix, both pages, and says what it assumed.
	p := mustPlan(t, c, "ROUTE 1, 3, 2, 5")
	if p.Chosen.Pages != 2 || !strings.Contains(p.Chosen.Detail, "if every hop is an edge") {
		t.Errorf("broken route predicted %d pages (%q), want 2 with the hop caveat", p.Chosen.Pages, p.Chosen.Detail)
	}
	// A node that is not stored ends the prefix: it is never read.
	if p := mustPlan(t, c, "ROUTE 1, 2, 99, 5"); p.Chosen.Pages != 1 {
		t.Errorf("route through a missing node predicted %d pages, want 1", p.Chosen.Pages)
	}
	// A missing first node is never read.
	p = mustPlan(t, c, "ROUTE 99, 1")
	if p.Chosen.Pages != 0 {
		t.Errorf("missing-head route predicted %d pages, want 0", p.Chosen.Pages)
	}
}

func TestPlanPathEstimate(t *testing.T) {
	c := testCatalog(t)
	// 8's page is one PAG hop from 1's: the estimate is the ball of one
	// hop around page 1, both pages — the executor, which finds no edge
	// out of 8, reads one; the estimate cannot know that.
	p := mustPlan(t, c, "PATH 8 TO 1")
	if p.Chosen.Pages != 2 || !strings.Contains(p.Chosen.Detail, "within 1 PAG hop(s)") {
		t.Errorf("PATH 8 TO 1 predicted %d pages (%q), want the 2 pages within 1 hop", p.Chosen.Pages, p.Chosen.Detail)
	}
	// Missing endpoints.
	if p := mustPlan(t, c, "PATH 99 TO 1"); p.Chosen.Pages != 0 {
		t.Errorf("missing src predicted %d pages, want 0", p.Chosen.Pages)
	}
	if p := mustPlan(t, c, "PATH 1 TO 99"); p.Chosen.Pages != 1 {
		t.Errorf("missing dst predicted %d pages, want 1 (src read first)", p.Chosen.Pages)
	}
	// src == dst settles immediately after the initial read.
	if p := mustPlan(t, c, "PATH 3 TO 3"); p.Chosen.Pages != 1 {
		t.Errorf("self path predicted %d pages, want 1", p.Chosen.Pages)
	}
}

func TestPlanAggValidation(t *testing.T) {
	c := testCatalog(t)
	bad := []string{
		"NEIGHBORS 1 DEPTH 1 AGG SUM(nodes)",
		"NEIGHBORS 1 DEPTH 1 AGG MIN(nodes)",
		"ROUTE 1, 2 AGG SUM(weight)",
		"ROUTE 1, 2 AGG COUNT(hops)",
	}
	for _, src := range bad {
		q, err := lang.Parse(src)
		if err != nil {
			t.Fatalf("Parse(%q): %v", src, err)
		}
		if _, err := Build(c, q); !errors.Is(err, ErrUnsupported) {
			t.Errorf("Build(%q) = %v, want ErrUnsupported", src, err)
		}
	}
	good := []string{
		"NEIGHBORS 1 DEPTH 1 AGG COUNT(nodes)",
		"NEIGHBORS 1 DEPTH 1 AGG SUM(cost)",
		"ROUTE 1, 2 AGG MIN(cost)",
		"ROUTE 1, 2 AGG COUNT(cost)",
	}
	for _, src := range good {
		mustPlan(t, c, src)
	}
}

// TestDescribeGolden pins EXPLAIN's text output for each access-path
// choice.
func TestDescribeGolden(t *testing.T) {
	c := testCatalog(t)
	stats := "  stats: alpha=0.500 |A|=2.00 lambda=4.00 gamma=4.00 nodes=8 pages=2\n"
	cases := []struct {
		src  string
		want string
	}{
		{
			"FIND 7",
			"plan: FIND 7\n" +
				"  access path: btree-point\n" +
				"  predicted data pages: 1\n" +
				"  model: one B+-tree descent to the record's data page (§2.2)\n" +
				stats +
				"  rejected: pag-scan — 2 page(s), model 1.00\n",
		},
		{
			"WINDOW (0.5, -1, 3.5, 1)",
			"plan: WINDOW (0.5, -1, 3.5, 1)\n" +
				"  access path: zrange\n" +
				"  predicted data pages: 1\n" +
				"  model: 3 index candidate(s) on 1 distinct page(s); γ-packed lower bound 0.75 pages\n" +
				stats +
				"  rejected: pag-scan — 2 page(s), model 1.00\n",
		},
		{
			"NEIGHBORS 1 DEPTH 1",
			"plan: NEIGHBORS 1 DEPTH 1\n" +
				"  access path: pag-scan\n" +
				"  predicted data pages: 2\n" +
				"  model: sequential scan of all 2 data pages in PAG order, counted at 1/2 per page\n" +
				stats +
				"  rejected: successor-expansion — 2 page(s), model 2.00\n",
		},
		{
			"NEIGHBORS 1 DEPTH 4",
			"plan: NEIGHBORS 1 DEPTH 4\n" +
				"  access path: pag-scan\n" +
				"  predicted data pages: 2\n" +
				"  model: sequential scan of all 2 data pages in PAG order, counted at 1/2 per page\n" +
				stats +
				"  rejected: successor-expansion — 2 page(s), model 9.00\n",
		},
		{
			"ROUTE 1, 2, 3",
			"plan: ROUTE 1, 2, 3\n" +
				"  access path: successor-chain\n" +
				"  predicted data pages: 1\n" +
				"  model: §3 route evaluation, L=3: 1 + (L-1)·(1-α) = 2.00\n" +
				stats,
		},
		{
			"PATH 1 TO 4",
			"plan: PATH 1 TO 4\n" +
				"  access path: successor-expansion\n" +
				"  predicted data pages: 1\n" +
				"  model: estimated: the 1 page(s) within 0 PAG hop(s) of the source's page; §3 route-evaluation form over their ≈4 node(s): 1 + (n-1)·(1-α) = 2.50\n" +
				stats,
		},
	}
	for _, tc := range cases {
		p := mustPlan(t, c, tc.src)
		if got := p.Describe(); got != tc.want {
			t.Errorf("Describe(%q):\n got:\n%s\nwant:\n%s\n(diff at byte %d)",
				tc.src, got, tc.want, diffAt(got, tc.want))
		}
	}
}

func diffAt(a, b string) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			return i
		}
	}
	return n
}

func TestNewCatalogFromFile(t *testing.T) {
	f := buildTestFile(t)
	c, err := NewCatalog(f)
	if err != nil {
		t.Fatal(err)
	}
	if c.Stats.Nodes != f.NumNodes() || c.Stats.Pages != f.NumPages() {
		t.Errorf("stats shape %d/%d, want %d/%d",
			c.Stats.Nodes, c.Stats.Pages, f.NumNodes(), f.NumPages())
	}
	if c.Stats.Alpha < 0 || c.Stats.Alpha > 1 {
		t.Errorf("alpha = %v out of range", c.Stats.Alpha)
	}
	if c.Stats.AvgA <= 0 || c.Stats.Gamma <= 0 {
		t.Errorf("degenerate stats: %+v", c.Stats)
	}
	// The probe must be wired to the file's spatial index.
	seen := 0
	err = c.probe(geom.Rect{Min: geom.Point{X: -1e9, Y: -1e9}, Max: geom.Point{X: 1e9, Y: 1e9}},
		func(graph.NodeID) bool { seen++; return true })
	if err != nil {
		t.Fatal(err)
	}
	if seen != f.NumNodes() {
		t.Errorf("probe saw %d candidates, want %d", seen, f.NumNodes())
	}
	// The catalog resolves placements like the file's index, and its
	// statistics are the ones a scan derives.
	edges, same, lists := 0, 0, 0
	place := f.Placement()
	if err := f.Scan(func(rec *netfile.Record) bool {
		if got, ok := c.pag.PageOf(rec.ID); !ok || got != place[rec.ID] {
			t.Errorf("catalog places %d on %d (%v), index on %d", rec.ID, got, ok, place[rec.ID])
		}
		lists += len(rec.Succs) + len(rec.Preds)
		for _, sc := range rec.Succs {
			edges++
			if place[sc.To] == place[rec.ID] {
				same++
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	n := float64(f.NumNodes())
	want := Stats{
		Alpha: float64(same) / float64(edges), AvgA: float64(edges) / n, Lambda: float64(lists) / n,
		Gamma: n / float64(f.NumPages()), Nodes: f.NumNodes(), Pages: f.NumPages(),
	}
	if c.Stats != want {
		t.Errorf("catalog stats %+v, a scan gives %+v", c.Stats, want)
	}
}
