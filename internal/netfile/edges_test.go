package netfile

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

func TestAddRemoveEdgeRecords(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)

	// Find a pair of stored nodes with no edge between them.
	ids := g.NodeIDs()
	var u, v graph.NodeID
	found := false
	for _, a := range ids {
		for _, b := range ids {
			if a == b {
				continue
			}
			if _, err := g.Edge(a, b); errors.Is(err, graph.ErrEdgeMissing) {
				u, v = a, b
				found = true
				break
			}
		}
		if found {
			break
		}
	}
	if !found {
		t.Fatal("no non-edge pair found")
	}

	if err := f.AddEdgeRecords(u, v, 42, nil); err != nil {
		t.Fatal(err)
	}
	ur, err := f.Find(u)
	if err != nil {
		t.Fatal(err)
	}
	if !ur.HasSucc(v) {
		t.Fatal("succ entry missing after AddEdgeRecords")
	}
	// v lists u back (Check: the lists agree).
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}

	// Duplicate add fails.
	if err := f.AddEdgeRecords(u, v, 42, nil); !errors.Is(err, graph.ErrEdgeExists) {
		t.Fatalf("dup add = %v", err)
	}
	// Self loop fails.
	if err := f.AddEdgeRecords(u, u, 1, nil); !errors.Is(err, graph.ErrSelfLoop) {
		t.Fatalf("self loop = %v", err)
	}
	// Missing endpoint fails.
	if err := f.AddEdgeRecords(u, 999999, 1, nil); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing endpoint = %v", err)
	}
	// ...and leaves no successor entry pointing at the missing node.
	if err := f.Check(); err != nil {
		t.Fatalf("after a failed add to a missing node: %v", err)
	}

	// Remove restores the original state.
	if err := f.RemoveEdgeRecords(u, v); err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveEdgeRecords(u, v); !errors.Is(err, graph.ErrEdgeMissing) {
		t.Fatalf("double remove = %v", err)
	}
	ur, _ = f.Find(u)
	if ur.HasSucc(v) {
		t.Fatal("succ entry survives removal")
	}
}

func TestSetEdgeCost(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)
	e := g.Edges()[0]
	if err := f.SetEdgeCost(e.From, e.To, 123.5); err != nil {
		t.Fatal(err)
	}
	rec, err := f.Find(e.From)
	if err != nil {
		t.Fatal(err)
	}
	var got float32
	for _, s := range rec.Succs {
		if s.To == e.To {
			got = s.Cost
		}
	}
	if got != 123.5 {
		t.Fatalf("cost = %f, want 123.5", got)
	}
	if err := f.SetEdgeCost(e.To, e.To, 1); !errors.Is(err, graph.ErrEdgeMissing) && err == nil {
		t.Fatalf("self cost set = %v", err)
	}
	if err := f.SetEdgeCost(999999, e.To, 1); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing node = %v", err)
	}
	// Non-edge of existing nodes.
	ids := g.NodeIDs()
	for _, b := range ids {
		if b == e.From {
			continue
		}
		if _, err := g.Edge(e.From, b); errors.Is(err, graph.ErrEdgeMissing) {
			if err := f.SetEdgeCost(e.From, b, 1); !errors.Is(err, graph.ErrEdgeMissing) {
				t.Fatalf("missing edge = %v", err)
			}
			break
		}
	}
	// SetEdgeCost touches exactly one data page.
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}
	if err := f.SetEdgeCost(e.From, e.To, 99); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	io := f.DataIO()
	if io.Reads != 1 || io.Writes != 1 {
		t.Fatalf("SetEdgeCost I/O = %+v, want 1 read + 1 write", io)
	}
}

func TestOpenFromStoreRebuildsEverything(t *testing.T) {
	g := testNetwork(t)
	st := storage.NewMemStore(1024)
	f, err := Create(Options{PageSize: 1024, PoolPages: 32, Bounds: g.Bounds(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	// Hand-build: sequential packing is fine for this test.
	var group []graph.NodeID
	var groups [][]graph.NodeID
	used := 0
	budget := PageBudget(1024)
	sizer := StoredSizer(g)
	for _, id := range g.NodeIDs() {
		s := sizer(id)
		if used+s > budget && len(group) > 0 {
			groups = append(groups, group)
			group, used = nil, 0
		}
		group = append(group, id)
		used += s
	}
	groups = append(groups, group)
	if err := f.BulkLoad(g, groups); err != nil {
		t.Fatal(err)
	}
	wantPlacement := f.Placement()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	// Reconstruct from the same store.
	f2, err := OpenFromStoreOpts(st, Options{PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	if f2.NumNodes() != g.NumNodes() || f2.NumPages() != len(groups) {
		t.Fatalf("reopened: %d nodes %d pages", f2.NumNodes(), f2.NumPages())
	}
	gotPlacement := f2.Placement()
	for id, pid := range wantPlacement {
		if gotPlacement[id] != pid {
			t.Fatalf("node %d moved: %d -> %d", id, pid, gotPlacement[id])
		}
	}
	// The free-space map, both indexes and the summary agree with the
	// pages.
	if err := f2.Check(); err != nil {
		t.Fatal(err)
	}
	// Spatial index works.
	all, err := f2.RangeQueryCtx(context.Background(), g.Bounds())
	if err != nil || len(all) != g.NumNodes() {
		t.Fatalf("reopened range query: %d, %v", len(all), err)
	}
	// Records survive a random spot check.
	rng := rand.New(rand.NewSource(6))
	ids := g.NodeIDs()
	for i := 0; i < 25; i++ {
		id := ids[rng.Intn(len(ids))]
		rec, err := f2.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(rec.Succs) != len(g.Successors(id)) {
			t.Fatalf("node %d lists damaged", id)
		}
	}
}

func TestFindPageWithSpace(t *testing.T) {
	f, err := Create(Options{PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	if _, ok := f.FindPageWithSpace(10); ok {
		t.Fatal("empty file reported a page")
	}
	p1, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	got, ok := f.FindPageWithSpace(10)
	if !ok || got != p1 {
		t.Fatalf("FindPageWithSpace = %d, %v", got, ok)
	}
	if _, ok := f.FindPageWithSpace(10000); ok {
		t.Fatal("oversized request satisfied")
	}
}

// TestPlaceRecord follows the paper's insertion rule: the page holding
// the most neighbors that has space, else any page with space, else a
// fresh page.
func TestPlaceRecord(t *testing.T) {
	f, err := Create(Options{PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	place := func(id graph.NodeID, attrs int, succs ...graph.NodeID) storage.PageID {
		t.Helper()
		rec := &Record{ID: id, Attrs: make([]byte, attrs)}
		for _, s := range succs {
			rec.AddSucc(s, 1)
		}
		pid, err := f.PlaceRecord(rec)
		if err != nil {
			t.Fatal(err)
		}
		if got, err := f.PageOf(id); err != nil || got != pid {
			t.Fatalf("node %d on page %d (%v), PlaceRecord said %d", id, got, err, pid)
		}
		return pid
	}
	a := place(1, 100) // an empty file: a fresh page
	b, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if got := place(2, 0, 1); got != a {
		t.Fatalf("record linked to node 1 went to page %d, want its page %d", got, a)
	}
	if got := place(3, 150, 1); got != b {
		t.Fatalf("record too big for its neighbor's page went to page %d, want the page with space %d", got, b)
	}
	if got := place(4, 150); got == a || got == b {
		t.Fatalf("record that fits no page went to page %d, want a fresh one", got)
	}
}

func TestPageBudgetAndStoredSizer(t *testing.T) {
	g := testNetwork(t)
	sizer := StoredSizer(g)
	base := RecordSizer(g)
	id := g.NodeIDs()[0]
	if sizer(id) != base(id)+storage.PerRecordOverhead {
		t.Fatal("StoredSizer does not add the slot overhead")
	}
	if PageBudget(1024) >= 1024 || PageBudget(1024) < 1024-32 {
		t.Fatalf("PageBudget(1024) = %d", PageBudget(1024))
	}
	// The guarantee: any set of records whose StoredSizer total fits
	// PageBudget physically fits on one page.
	f, err := Create(Options{PageSize: 512, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	budget := PageBudget(512)
	used := 0
	n := 0
	for i := graph.NodeID(1); ; i++ {
		rec := &Record{ID: i, Attrs: make([]byte, 20)}
		s := rec.EncodedSize() + storage.PerRecordOverhead
		if used+s > budget {
			break
		}
		if err := f.InsertRecordAt(rec, pid); err != nil {
			t.Fatalf("record %d rejected although within budget: %v", i, err)
		}
		used += s
		n++
	}
	if n < 5 {
		t.Fatalf("only %d records fit", n)
	}
}

// TestStoredSizeMatchesRecord: StoredSizer computes sizes from the
// node's attribute and list lengths instead of building its record, and
// must agree with the record it stands for on every node of three
// network families, a node whose lists an edit shortened included.
func TestStoredSizeMatchesRecord(t *testing.T) {
	road, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	edited := road.Clone()
	if e := edited.Edges()[0]; edited.RemoveEdge(e.From, e.To) != nil {
		t.Fatal("edge removal failed")
	}
	radial, err := graph.RadialCity(graph.RadialCityOpts{
		Rings: 12, Spokes: 40, Radius: 4000, Center: geom.Point{X: 4000, Y: 4000},
		Jitter: 0.2, DeleteFrac: 0.12, AttrBytes: 24, Seed: 5,
	})
	if err != nil {
		t.Fatal(err)
	}
	geo := graph.RandomGeometric(800, 320, geom.NewRect(geom.Point{}, geom.Point{X: 8000, Y: 8000}), 9)
	for name, g := range map[string]*graph.Network{"road": road, "edited": edited, "radial": radial, "geometric": geo} {
		sizer := StoredSizer(g)
		for _, id := range g.NodeIDs() {
			rec, err := RecordFromNode(g, id)
			if err != nil {
				t.Fatal(err)
			}
			if got, want := sizer(id), rec.EncodedSize()+storage.PerRecordOverhead; got != want {
				t.Fatalf("%s node %d: StoredSizer %d, record %d", name, id, got, want)
			}
		}
	}
}

func TestEvaluateRouteUnit(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)

	// Build a route-unit from a random walk: a connected chain, like a
	// bus route.
	rng := rand.New(rand.NewSource(23))
	routes, err := graph.RandomWalkRoutes(g, 1, 12, rng)
	if err != nil {
		t.Fatal(err)
	}
	route := routes[0]
	var members [][2]graph.NodeID
	want := 0.0
	for i := 0; i+1 < len(route); i++ {
		members = append(members, [2]graph.NodeID{route[i], route[i+1]})
		e, err := g.Edge(route[i], route[i+1])
		if err != nil {
			t.Fatal(err)
		}
		want += e.Cost
	}
	agg, err := f.EvaluateRouteUnit(context.Background(), "bus-7", members)
	if err != nil {
		t.Fatal(err)
	}
	if agg.Name != "bus-7" || agg.Edges != len(members) {
		t.Fatalf("agg = %+v", agg)
	}
	if agg.Nodes < 2 || agg.Nodes > len(route) {
		t.Fatalf("nodes = %d", agg.Nodes)
	}
	if diff := agg.TotalCost - want; diff > 1e-2 || diff < -1e-2 {
		t.Fatalf("total = %f, want %f", agg.TotalCost, want)
	}
	if agg.MinCost <= 0 || agg.MaxCost < agg.MinCost {
		t.Fatalf("min/max = %f/%f", agg.MinCost, agg.MaxCost)
	}

	// Errors: empty unit, non-edge member, missing node.
	if _, err := f.EvaluateRouteUnit(context.Background(), "empty", nil); err == nil {
		t.Fatal("empty unit accepted")
	}
	if _, err := f.EvaluateRouteUnit(context.Background(), "bad", [][2]graph.NodeID{{route[0], route[0]}}); err == nil {
		t.Fatal("self-loop member accepted")
	}
	if _, err := f.EvaluateRouteUnit(context.Background(), "bad", [][2]graph.NodeID{{999999, route[0]}}); !errors.Is(err, ErrNotFound) {
		t.Fatalf("missing node = %v", err)
	}

	// Connectivity clustering pays: the whole unit costs only a few
	// page reads.
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}
	if _, err := f.EvaluateRouteUnit(context.Background(), "bus-7", members); err != nil {
		t.Fatal(err)
	}
	if reads := f.DataIO().Reads; reads > int64(len(route)) {
		t.Fatalf("route-unit read %d pages for %d nodes", reads, len(route))
	}
}

func TestScan(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 8)
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]bool{}
	if err := f.Scan(func(rec *Record) bool {
		if seen[rec.ID] {
			t.Fatalf("record %d visited twice", rec.ID)
		}
		seen[rec.ID] = true
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("scanned %d of %d", len(seen), g.NumNodes())
	}
	// One read per page.
	if reads := f.DataIO().Reads; reads != int64(f.NumPages()) {
		t.Fatalf("scan reads = %d, pages = %d", reads, f.NumPages())
	}
	// Early stop.
	n := 0
	if err := f.Scan(func(*Record) bool { n++; return false }); err != nil {
		t.Fatal(err)
	}
	if n != 1 {
		t.Fatalf("early stop visited %d", n)
	}
}

func TestGetASuccessorBufferedFirst(t *testing.T) {
	// The paper's protocol: the buffered page holding the current node
	// is searched first, so a co-located successor costs zero physical
	// reads.
	g := testNetwork(t)
	f := buildFile(t, g, 2048, 4)
	placement := f.Placement()

	// Find a node with a co-located successor and one with a remote
	// successor.
	var coID, coSucc, farID, farSucc graph.NodeID
	haveCo, haveFar := false, false
	for _, id := range g.NodeIDs() {
		for _, s := range g.Successors(id) {
			if placement[id] == placement[s] && !haveCo {
				coID, coSucc, haveCo = id, s, true
			}
			if placement[id] != placement[s] && !haveFar {
				farID, farSucc, haveFar = id, s, true
			}
		}
		if haveCo && haveFar {
			break
		}
	}
	if !haveCo || !haveFar {
		t.Skip("placement lacks a co-located or remote successor pair")
	}

	// Co-located: zero additional reads after the Find.
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}
	rec, err := f.Find(coID)
	if err != nil {
		t.Fatal(err)
	}
	base := f.DataIO().Reads
	if _, err := f.GetASuccessor(rec, coSucc); err != nil {
		t.Fatal(err)
	}
	if extra := f.DataIO().Reads - base; extra != 0 {
		t.Fatalf("co-located Get-A-successor cost %d reads", extra)
	}

	// Remote: exactly one read.
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}
	rec, err = f.Find(farID)
	if err != nil {
		t.Fatal(err)
	}
	base = f.DataIO().Reads
	if _, err := f.GetASuccessor(rec, farSucc); err != nil {
		t.Fatal(err)
	}
	if extra := f.DataIO().Reads - base; extra != 1 {
		t.Fatalf("remote Get-A-successor cost %d reads, want 1", extra)
	}
}
