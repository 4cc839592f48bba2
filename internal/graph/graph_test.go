package graph

import (
	"bytes"
	"errors"
	"math"
	"math/rand"
	"slices"
	"strings"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/storage"
)

func TestAddRemoveNodeEdge(t *testing.T) {
	g := NewNetwork()
	if err := g.AddNode(Node{ID: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(Node{ID: 2}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddNode(Node{ID: 1}); !errors.Is(err, ErrNodeExists) {
		t.Fatalf("dup node = %v", err)
	}
	if err := g.AddEdge(Edge{From: 1, To: 2, Cost: 5, Weight: 1}); err != nil {
		t.Fatal(err)
	}
	if err := g.AddEdge(Edge{From: 1, To: 2}); !errors.Is(err, ErrEdgeExists) {
		t.Fatalf("dup edge = %v", err)
	}
	if err := g.AddEdge(Edge{From: 1, To: 1}); !errors.Is(err, ErrSelfLoop) {
		t.Fatalf("self loop = %v", err)
	}
	if err := g.AddEdge(Edge{From: 1, To: 99}); !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("dangling edge = %v", err)
	}
	e, err := g.Edge(1, 2)
	if err != nil || e.Cost != 5 {
		t.Fatalf("Edge = %+v, %v", e, err)
	}
	if _, err := g.Edge(2, 1); !errors.Is(err, ErrEdgeMissing) {
		t.Fatalf("reverse edge = %v", err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d", g.NumEdges())
	}
	if err := g.RemoveEdge(1, 2); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveEdge(1, 2); !errors.Is(err, ErrEdgeMissing) {
		t.Fatalf("double remove = %v", err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRemoveNodeCleansIncidentEdges(t *testing.T) {
	g := NewNetwork()
	for i := NodeID(1); i <= 4; i++ {
		g.AddNode(Node{ID: i})
	}
	g.AddEdge(Edge{From: 1, To: 2})
	g.AddEdge(Edge{From: 2, To: 3})
	g.AddEdge(Edge{From: 3, To: 2})
	g.AddEdge(Edge{From: 4, To: 2})
	if err := g.RemoveNode(2); err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 0 {
		t.Fatalf("NumEdges = %d, want 0", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := g.RemoveNode(2); !errors.Is(err, ErrNodeMissing) {
		t.Fatalf("double remove node = %v", err)
	}
}

func TestNeighborsDedup(t *testing.T) {
	g := NewNetwork()
	g.AddNode(Node{ID: 1})
	g.AddNode(Node{ID: 2})
	g.AddEdge(Edge{From: 1, To: 2})
	g.AddEdge(Edge{From: 2, To: 1})
	nb := g.Neighbors(1)
	if len(nb) != 1 || nb[0] != 2 {
		t.Fatalf("Neighbors = %v, want [2]", nb)
	}
}

func TestSuccessorsPredecessors(t *testing.T) {
	g := NewNetwork()
	for i := NodeID(1); i <= 3; i++ {
		g.AddNode(Node{ID: i})
	}
	g.AddEdge(Edge{From: 1, To: 2, Cost: 1})
	g.AddEdge(Edge{From: 1, To: 3, Cost: 2})
	g.AddEdge(Edge{From: 3, To: 1, Cost: 3})
	if s := g.Successors(1); len(s) != 2 {
		t.Fatalf("Successors(1) = %v", s)
	}
	if p := g.Predecessors(1); len(p) != 1 || p[0] != 3 {
		t.Fatalf("Predecessors(1) = %v", p)
	}
	es := g.SuccessorEdges(1)
	if len(es) != 2 || es[0].From != 1 {
		t.Fatalf("SuccessorEdges = %v", es)
	}
}

func TestCloneIsDeep(t *testing.T) {
	g := NewNetwork()
	g.AddNode(Node{ID: 1, Attrs: []byte{1, 2}})
	g.AddNode(Node{ID: 2})
	g.AddEdge(Edge{From: 1, To: 2, Weight: 1})
	c := g.Clone()
	c.RemoveNode(2)
	c1, _ := c.Node(1)
	c1.Attrs[0] = 9
	if !g.HasNode(2) || g.NumEdges() != 1 {
		t.Fatal("clone mutation leaked into original")
	}
	g1, _ := g.Node(1)
	if g1.Attrs[0] != 1 {
		t.Fatal("attr mutation leaked into original")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestSubnetwork(t *testing.T) {
	g := Grid(3, 3)
	keep := map[NodeID]bool{0: true, 1: true, 3: true}
	s := g.Subnetwork(keep)
	if s.NumNodes() != 3 {
		t.Fatalf("nodes = %d", s.NumNodes())
	}
	// Edges 0<->1 and 0<->3 survive; 1<->4, 3<->4 etc. do not.
	if s.NumEdges() != 4 {
		t.Fatalf("edges = %d, want 4", s.NumEdges())
	}
	if err := s.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestCRRAndWCRR(t *testing.T) {
	g := NewNetwork()
	for i := NodeID(1); i <= 4; i++ {
		g.AddNode(Node{ID: i})
	}
	g.AddEdge(Edge{From: 1, To: 2, Weight: 1})
	g.AddEdge(Edge{From: 2, To: 3, Weight: 3})
	g.AddEdge(Edge{From: 3, To: 4, Weight: 1})
	g.AddEdge(Edge{From: 4, To: 1, Weight: 3})
	p := Placement{1: 0, 2: 0, 3: 1, 4: 1}
	// Unsplit: 1->2 (page 0), 3->4 (page 1). CRR = 2/4.
	if got := CRR(g, p); math.Abs(got-0.5) > 1e-12 {
		t.Fatalf("CRR = %f, want 0.5", got)
	}
	// WCRR = (1+1)/(1+3+1+3) = 0.25.
	if got := WCRR(g, p); math.Abs(got-0.25) > 1e-12 {
		t.Fatalf("WCRR = %f, want 0.25", got)
	}
	// All on one page: CRR = 1.
	p1 := Placement{1: 0, 2: 0, 3: 0, 4: 0}
	if got := CRR(g, p1); got != 1 {
		t.Fatalf("CRR single page = %f", got)
	}
	// Every node alone: CRR = 0.
	p2 := Placement{1: 0, 2: 1, 3: 2, 4: 3}
	if got := CRR(g, p2); got != 0 {
		t.Fatalf("CRR all split = %f", got)
	}
	// Uniform weights make WCRR == CRR.
	UniformWeights(g)
	if CRR(g, p) != WCRR(g, p) {
		t.Fatal("uniform weights: WCRR != CRR")
	}
}

func TestCRREmptyNetwork(t *testing.T) {
	g := NewNetwork()
	if CRR(g, Placement{}) != 0 || WCRR(g, Placement{}) != 0 {
		t.Fatal("CRR/WCRR of empty network should be 0")
	}
}

func TestPAG(t *testing.T) {
	g := NewNetwork()
	for i := NodeID(1); i <= 6; i++ {
		g.AddNode(Node{ID: i})
	}
	g.AddEdge(Edge{From: 1, To: 2})
	g.AddEdge(Edge{From: 2, To: 3}) // crosses page 0 -> 1
	g.AddEdge(Edge{From: 4, To: 5}) // within page 1
	g.AddEdge(Edge{From: 5, To: 6}) // crosses page 1 -> 2
	p := Placement{1: 10, 2: 10, 3: 11, 4: 11, 5: 11, 6: 12}
	pag := BuildPAG(g, p)
	if pag.NumPages() != 3 {
		t.Fatalf("PAG pages = %d", pag.NumPages())
	}
	for pid, want := range map[storage.PageID][]storage.PageID{10: {11}, 11: {10, 12}, 12: {11}} {
		got := pag.NbrPages(pid)
		if slices.Sort(got); !slices.Equal(got, want) {
			t.Fatalf("NbrPages(%d) = %v, want %v", pid, got, want)
		}
	}
}

func TestValidatePlacement(t *testing.T) {
	g := Grid(2, 2)
	p := Placement{0: 0, 1: 0, 2: 1, 3: 1}
	if err := ValidatePlacement(g, p); err != nil {
		t.Fatal(err)
	}
	delete(p, 3)
	if err := ValidatePlacement(g, p); err == nil {
		t.Fatal("missing node not detected")
	}
	p[3] = 1
	p[99] = 2
	if err := ValidatePlacement(g, p); err == nil {
		t.Fatal("unknown node not detected")
	}
}

func TestGridStructure(t *testing.T) {
	g := Grid(3, 4)
	if g.NumNodes() != 12 {
		t.Fatalf("nodes = %d", g.NumNodes())
	}
	// Undirected segments: 3*3 horizontal + 2*4 vertical = 17; directed = 34.
	if g.NumEdges() != 34 {
		t.Fatalf("edges = %d, want 34", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRoadMapMinneapolisScale(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n, e := g.NumNodes(), g.NumEdges()
	if n < 950 || n > 1150 {
		t.Errorf("nodes = %d, want ~1079", n)
	}
	if e < 2700 || e > 3400 {
		t.Errorf("edges = %d, want ~3057", e)
	}
	if a := g.AvgSuccessors(); a < 2.5 || a > 3.2 {
		t.Errorf("|A| = %f, want ~2.83", a)
	}
	// Connected (single weak component) by construction.
	start := g.NodeIDs()[0]
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	if len(seen) != n {
		t.Errorf("network not connected: reached %d of %d", len(seen), n)
	}
}

func TestRoadMapDeterministic(t *testing.T) {
	a, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	b, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	if a.NumNodes() != b.NumNodes() || a.NumEdges() != b.NumEdges() {
		t.Fatal("same seed produced different maps")
	}
	ea, eb := a.Edges(), b.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
}

func TestRoadMapRejectsBadOpts(t *testing.T) {
	if _, err := RoadMap(RoadMapOpts{Rows: 1, Cols: 5}); err == nil {
		t.Fatal("1-row lattice accepted")
	}
	o := MinneapolisLikeOpts()
	o.DeleteFrac = 1.0
	if _, err := RoadMap(o); err == nil {
		t.Fatal("DeleteFrac=1 accepted")
	}
}

func TestRandomGeometricConnected(t *testing.T) {
	g := RandomGeometric(200, 2.0, geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 10}), 3)
	if g.NumNodes() == 0 {
		t.Fatal("empty graph")
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestRandomWalkRoutes(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(4))
	routes, err := RandomWalkRoutes(g, 50, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	if len(routes) != 50 {
		t.Fatalf("routes = %d", len(routes))
	}
	for i, r := range routes {
		if len(r) != 20 {
			t.Fatalf("route %d length = %d", i, len(r))
		}
		if err := r.Validate(g); err != nil {
			t.Fatalf("route %d: %v", i, err)
		}
	}
}

func TestRandomWalkRoutesErrors(t *testing.T) {
	g := Grid(2, 2)
	rng := rand.New(rand.NewSource(1))
	if _, err := RandomWalkRoutes(g, 1, 1, rng); err == nil {
		t.Fatal("length 1 accepted")
	}
	if _, err := RandomWalkRoutes(NewNetwork(), 1, 5, rng); err == nil {
		t.Fatal("empty network accepted")
	}
}

func TestApplyRouteWeights(t *testing.T) {
	g := Grid(2, 2) // nodes 0,1,2,3; edges both ways between lattice nbrs
	routes := []Route{{0, 1, 0}, {0, 1, 3}}
	n, err := ApplyRouteWeights(g, routes)
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("traversals = %d, want 4", n)
	}
	e, _ := g.Edge(0, 1)
	if e.Weight != 2 {
		t.Fatalf("w(0->1) = %f, want 2", e.Weight)
	}
	e, _ = g.Edge(1, 0)
	if e.Weight != 1 {
		t.Fatalf("w(1->0) = %f, want 1", e.Weight)
	}
	e, _ = g.Edge(2, 0)
	if e.Weight != 0 {
		t.Fatalf("w(2->0) = %f, want 0 (unaccessed)", e.Weight)
	}
	// Invalid route rejected.
	if _, err := ApplyRouteWeights(g, []Route{{0, 3}}); !errors.Is(err, ErrInvalidRoute) {
		t.Fatalf("diagonal route = %v", err)
	}
	UniformWeights(g)
	e, _ = g.Edge(0, 1)
	if e.Weight != 1 {
		t.Fatal("UniformWeights failed")
	}
}

func TestAvgStats(t *testing.T) {
	g := Grid(3, 3)
	// 12 undirected segments, 24 directed edges over 9 nodes.
	if got := g.AvgSuccessors(); math.Abs(got-24.0/9.0) > 1e-12 {
		t.Fatalf("AvgSuccessors = %f", got)
	}
	if got := g.AvgNeighbors(); math.Abs(got-24.0/9.0) > 1e-12 {
		t.Fatalf("AvgNeighbors = %f", got)
	}
}

func TestBounds(t *testing.T) {
	g := NewNetwork()
	g.AddNode(Node{ID: 1, Pos: geom.Point{X: -5, Y: 3}})
	g.AddNode(Node{ID: 2, Pos: geom.Point{X: 7, Y: -2}})
	b := g.Bounds()
	if b.Min.X != -5 || b.Min.Y != -2 || b.Max.X != 7 || b.Max.Y != 3 {
		t.Fatalf("Bounds = %+v", b)
	}
}

var _ = storage.PageID(0) // placement values are storage page ids

func TestJSONRoundTrip(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if err := g.WriteJSON(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSON(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if got.NumNodes() != g.NumNodes() || got.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip: %d/%d nodes, %d/%d edges",
			got.NumNodes(), g.NumNodes(), got.NumEdges(), g.NumEdges())
	}
	ea, eb := g.Edges(), got.Edges()
	for i := range ea {
		if ea[i] != eb[i] {
			t.Fatalf("edge %d differs: %+v vs %+v", i, ea[i], eb[i])
		}
	}
	na, _ := g.Node(g.NodeIDs()[0])
	nb, _ := got.Node(g.NodeIDs()[0])
	if na.Pos != nb.Pos || !bytes.Equal(na.Attrs, nb.Attrs) {
		t.Fatal("node payload lost in round trip")
	}
	if err := got.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestReadJSONRejectsBadInput(t *testing.T) {
	if _, err := ReadJSON(strings.NewReader("{not json")); err == nil {
		t.Fatal("garbage accepted")
	}
	// Edge to unknown node.
	bad := `{"nodes":[{"id":1,"x":0,"y":0}],"edges":[{"from":1,"to":2,"cost":1,"weight":1}]}`
	if _, err := ReadJSON(strings.NewReader(bad)); err == nil {
		t.Fatal("dangling edge accepted")
	}
	// Duplicate node.
	dup := `{"nodes":[{"id":1,"x":0,"y":0},{"id":1,"x":1,"y":1}],"edges":[]}`
	if _, err := ReadJSON(strings.NewReader(dup)); err == nil {
		t.Fatal("duplicate node accepted")
	}
}

func TestRadialCity(t *testing.T) {
	g, err := RadialCity(RadialCityOpts{
		Rings: 6, Spokes: 24, Radius: 1000,
		Center: geom.Point{X: 500, Y: 500},
		Jitter: 0.2, DeleteFrac: 0.1, AttrBytes: 16, Seed: 4,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	if n < 100 || n > 6*24+1 {
		t.Fatalf("nodes = %d", n)
	}
	// Connected by construction.
	start := g.NodeIDs()[0]
	seen := map[NodeID]bool{start: true}
	stack := []NodeID{start}
	for len(stack) > 0 {
		cur := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, nb := range g.Neighbors(cur) {
			if !seen[nb] {
				seen[nb] = true
				stack = append(stack, nb)
			}
		}
	}
	if len(seen) != n {
		t.Fatalf("disconnected: %d of %d", len(seen), n)
	}
	// Average degree sits in road-network range.
	if a := g.AvgSuccessors(); a < 2.0 || a > 4.5 {
		t.Errorf("|A| = %f", a)
	}
	// Deterministic.
	g2, _ := RadialCity(RadialCityOpts{
		Rings: 6, Spokes: 24, Radius: 1000,
		Center: geom.Point{X: 500, Y: 500},
		Jitter: 0.2, DeleteFrac: 0.1, AttrBytes: 16, Seed: 4,
	})
	if g2.NumNodes() != n || g2.NumEdges() != g.NumEdges() {
		t.Fatal("not deterministic")
	}
	// Bad options rejected.
	if _, err := RadialCity(RadialCityOpts{Rings: 0, Spokes: 8}); err == nil {
		t.Fatal("0 rings accepted")
	}
	if _, err := RadialCity(RadialCityOpts{Rings: 3, Spokes: 2}); err == nil {
		t.Fatal("2 spokes accepted")
	}
}
