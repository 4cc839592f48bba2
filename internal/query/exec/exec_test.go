package exec

import (
	"context"
	"errors"
	"reflect"
	"testing"

	"ccam/internal/ccam"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query/lang"
	"ccam/internal/query/plan"
)

func buildFile(t *testing.T) (*netfile.File, *plan.Catalog) {
	t.Helper()
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 12, 12
	g, err := graph.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	m, err := ccam.New(ccam.Config{File: netfile.Options{PageSize: 1024, PoolPages: 256}, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		t.Fatal(err)
	}
	f := m.File()
	c, err := plan.NewCatalog(f)
	if err != nil {
		t.Fatal(err)
	}
	return f, c
}

func run(t *testing.T, f *netfile.File, c *plan.Catalog, src string) *Result {
	t.Helper()
	q, err := lang.Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	pl, err := plan.Build(c, q)
	if err != nil {
		t.Fatalf("Build(%q): %v", src, err)
	}
	res, err := Run(context.Background(), f, pl, q)
	if err != nil {
		t.Fatalf("Run(%q): %v", src, err)
	}
	return res
}

// forcePath rebuilds a plan with the chosen path overridden, so both
// executor paths can be compared on the same statement.
func forcePath(t *testing.T, c *plan.Catalog, src string, path plan.AccessPath) (*plan.Plan, *lang.Query) {
	t.Helper()
	q, err := lang.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(c, q)
	if err != nil {
		t.Fatal(err)
	}
	pl.Chosen.Path = path
	return pl, q
}

func TestWindowScanMatchesIndex(t *testing.T) {
	f, c := buildFile(t)
	src := "WINDOW (0, 0, 2000, 1500)"
	viaIndex := run(t, f, c, src)

	pl, q := forcePath(t, c, src, plan.PathPAGScan)
	viaScan, err := Run(context.Background(), f, pl, q)
	if err != nil {
		t.Fatal(err)
	}
	if viaIndex.Count == 0 {
		t.Fatal("window matched nothing; widen the test rect")
	}
	if !reflect.DeepEqual(viaIndex.Nodes, viaScan.Nodes) {
		t.Errorf("index path and scan path disagree: %d vs %d rows",
			len(viaIndex.Nodes), len(viaScan.Nodes))
	}
}

func TestNeighborsScanMatchesExpansion(t *testing.T) {
	f, c := buildFile(t)
	start := anyNode(t, f)
	src := "NEIGHBORS " + itoa(start) + " DEPTH 2 AGG SUM(cost)"

	plExp, qExp := forcePath(t, c, src, plan.PathSuccExpand)
	viaExpand, err := Run(context.Background(), f, plExp, qExp)
	if err != nil {
		t.Fatal(err)
	}
	plScan, qScan := forcePath(t, c, src, plan.PathPAGScan)
	viaScan, err := Run(context.Background(), f, plScan, qScan)
	if err != nil {
		t.Fatal(err)
	}
	if viaExpand.Count < 3 {
		t.Fatalf("depth-2 ball has only %d nodes", viaExpand.Count)
	}
	if !reflect.DeepEqual(viaExpand.Nodes, viaScan.Nodes) {
		t.Error("expansion and scan paths return different balls")
	}
	if viaExpand.Agg == nil || viaScan.Agg == nil {
		t.Fatal("missing aggregate")
	}
	if viaExpand.Agg.Value != viaScan.Agg.Value || viaExpand.Agg.Count != viaScan.Agg.Count {
		t.Errorf("aggregates disagree: %+v vs %+v", viaExpand.Agg, viaScan.Agg)
	}
	if viaExpand.Agg.Value <= 0 {
		t.Errorf("SUM(cost) = %v, want > 0", viaExpand.Agg.Value)
	}
}

func TestNeighborsCountNodes(t *testing.T) {
	f, c := buildFile(t)
	start := anyNode(t, f)
	res := run(t, f, c, "NEIGHBORS "+itoa(start)+" DEPTH 1 AGG COUNT(nodes)")
	if res.Agg == nil || int(res.Agg.Value) != res.Count {
		t.Errorf("COUNT(nodes) = %+v, want count %d", res.Agg, res.Count)
	}
}

func TestRouteAndPath(t *testing.T) {
	f, c := buildFile(t)
	// Find a real 2-hop route: a node, a successor, a successor's
	// successor.
	var route []graph.NodeID
	err := f.Scan(func(rec *netfile.Record) bool {
		if len(rec.Succs) == 0 {
			return true
		}
		mid, err := f.Find(rec.Succs[0].To)
		if err != nil {
			return true
		}
		// The road map is bidirectional: skip successors that lead
		// straight back, we need three distinct nodes.
		for _, s := range mid.Succs {
			if s.To != rec.ID && s.To != mid.ID {
				route = []graph.NodeID{rec.ID, mid.ID, s.To}
				return false
			}
		}
		return true
	})
	if err != nil || len(route) != 3 {
		t.Fatalf("no 2-hop route found: %v", err)
	}
	src := "ROUTE " + itoa(route[0]) + ", " + itoa(route[1]) + ", " + itoa(route[2]) + " AGG MIN(cost)"
	res := run(t, f, c, src)
	if res.Count != 3 || res.Cost <= 0 {
		t.Errorf("route result: count=%d cost=%v", res.Count, res.Cost)
	}
	if res.Agg == nil || res.Agg.Count != 2 || res.Agg.Value <= 0 || res.Agg.Value > res.Cost {
		t.Errorf("MIN(cost) = %+v (total %v)", res.Agg, res.Cost)
	}

	pres := run(t, f, c, "PATH "+itoa(route[0])+" TO "+itoa(route[2]))
	if len(pres.Path) < 2 || pres.Path[0] != route[0] || pres.Path[len(pres.Path)-1] != route[2] {
		t.Errorf("path = %v", pres.Path)
	}
	if pres.Cost <= 0 || pres.Cost > res.Cost+1e-9 {
		t.Errorf("shortest cost %v exceeds known route cost %v", pres.Cost, res.Cost)
	}
}

func TestRunErrors(t *testing.T) {
	f, c := buildFile(t)
	q, err := lang.Parse("FIND 4000000000")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(c, q)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(context.Background(), f, pl, q); !errors.Is(err, netfile.ErrNotFound) {
		t.Errorf("missing find: %v, want ErrNotFound", err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	q2, _ := lang.Parse("WINDOW (0, 0, 100000, 100000)")
	pl2, err := plan.Build(c, q2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := Run(ctx, f, pl2, q2); !errors.Is(err, context.Canceled) {
		t.Errorf("canceled window: %v, want context.Canceled", err)
	}
}

func TestExplainResult(t *testing.T) {
	_, c := buildFile(t)
	q, err := lang.Parse("EXPLAIN FIND 1")
	if err != nil {
		t.Fatal(err)
	}
	pl, err := plan.Build(c, q)
	if err != nil {
		t.Fatal(err)
	}
	res := Explain(pl)
	if !res.Explain || res.Plan == nil || res.Text == "" {
		t.Errorf("explain result incomplete: %+v", res)
	}
	if res.Nodes != nil || res.Actual != nil {
		t.Error("explain result must not carry rows or actuals")
	}
}

func anyNode(t *testing.T, f *netfile.File) graph.NodeID {
	t.Helper()
	var id graph.NodeID
	found := false
	if err := f.Scan(func(rec *netfile.Record) bool {
		if len(rec.Succs) > 0 {
			id, found = rec.ID, true
			return false
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if !found {
		t.Fatal("no node with successors")
	}
	return id
}

func itoa(id graph.NodeID) string {
	return (&lang.Find{ID: id}).String()[len("FIND "):]
}
