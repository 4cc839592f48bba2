package gridfile

import (
	"math/rand"
	"strings"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

func roadMap(t *testing.T) *graph.Network {
	t.Helper()
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func build(t *testing.T, g *graph.Network) *Method {
	t.Helper()
	m, err := New(Config{PageSize: 1024, PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		t.Fatal(err)
	}
	return m
}

func TestBuildValidates(t *testing.T) {
	g := roadMap(t)
	m := build(t, g)
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.File().NumNodes() != g.NumNodes() {
		t.Fatalf("nodes = %d, want %d", m.File().NumNodes(), g.NumNodes())
	}
	nx, ny := m.GridShape()
	if nx < 2 || ny < 2 {
		t.Fatalf("grid shape %dx%d too small for %d nodes", nx, ny, g.NumNodes())
	}
	if m.NumBuckets() < g.NumNodes()/20 {
		t.Fatalf("only %d buckets", m.NumBuckets())
	}
	t.Logf("grid %dx%d, %d buckets, CRR=%.4f", nx, ny, m.NumBuckets(),
		graph.CRR(g, m.File().Placement()))
}

func TestSpatialClusteringQuality(t *testing.T) {
	// Proximity clustering exploits the connectivity/proximity
	// correlation of road maps: CRR should land well above BFS-like
	// scatter but below connectivity clustering (paper: 0.54 at 1k).
	g := roadMap(t)
	m := build(t, g)
	crr := graph.CRR(g, m.File().Placement())
	if crr < 0.3 || crr > 0.75 {
		t.Fatalf("grid file CRR = %.4f, expected mid-range", crr)
	}
}

func TestPointQuery(t *testing.T) {
	g := roadMap(t)
	m := build(t, g)
	for _, id := range g.NodeIDs()[:25] {
		n, _ := g.Node(id)
		rec, err := m.PointQuery(n.Pos)
		if err != nil {
			t.Fatal(err)
		}
		if rec == nil || rec.ID != id {
			t.Fatalf("PointQuery(%v) = %v, want node %d", n.Pos, rec, id)
		}
	}
	// A miss returns nil without error.
	rec, err := m.PointQuery(geom.Point{X: -1e9, Y: -1e9})
	if err != nil || rec != nil {
		t.Fatalf("miss = %v, %v", rec, err)
	}
}

func TestRangeQueryMatchesBruteForce(t *testing.T) {
	g := roadMap(t)
	m := build(t, g)
	b := g.Bounds()
	rng := rand.New(rand.NewSource(5))
	for trial := 0; trial < 10; trial++ {
		x1 := b.Min.X + rng.Float64()*b.Width()
		y1 := b.Min.Y + rng.Float64()*b.Height()
		rect := geom.NewRect(geom.Point{X: x1, Y: y1},
			geom.Point{X: x1 + rng.Float64()*b.Width()/3, Y: y1 + rng.Float64()*b.Height()/3})
		got, err := m.RangeQuery(rect)
		if err != nil {
			t.Fatal(err)
		}
		want := map[graph.NodeID]bool{}
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			if rect.Contains(n.Pos) {
				want[id] = true
			}
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: got %d records, want %d", trial, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("trial %d: unexpected node %d", trial, r.ID)
			}
		}
	}
}

func TestInsertDeleteMaintainsInvariants(t *testing.T) {
	g := roadMap(t)
	m := build(t, g)
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(3))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:40] {
		op, err := netfile.InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := m.Delete(id, netfile.FirstOrder); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		if err := m.Insert(op, netfile.FirstOrder); err != nil {
			t.Fatalf("Insert(%d): %v", id, err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	if m.File().NumNodes() != g.NumNodes() {
		t.Fatalf("node count drifted")
	}
	// Records stay spatially placed: reinserted nodes are findable by
	// point query.
	for _, id := range ids[:10] {
		n, _ := g.Node(id)
		rec, err := m.PointQuery(n.Pos)
		if err != nil || rec == nil || rec.ID != id {
			t.Fatalf("PointQuery after reinsert: %v %v", rec, err)
		}
	}
}

func TestDeleteManyMergesEmptyBuckets(t *testing.T) {
	g := roadMap(t)
	m := build(t, g)
	before := m.NumBuckets()
	ids := g.NodeIDs()
	for _, id := range ids[:len(ids)*3/4] {
		if err := m.Delete(id, netfile.FirstOrder); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
	after := m.NumBuckets()
	if after >= before {
		t.Fatalf("buckets did not shrink: %d -> %d", before, after)
	}
}

func TestMutationsBeforeBuild(t *testing.T) {
	m, err := New(Config{PageSize: 1024})
	if err != nil {
		t.Fatal(err)
	}
	ins := &netfile.InsertOp{Rec: &netfile.Record{ID: 1, Succs: []netfile.SuccEntry{{To: 2, Cost: 1}}}}
	for name, op := range map[string]func() error{
		"insert":      func() error { return m.Insert(ins, netfile.FirstOrder) },
		"delete":      func() error { return m.Delete(1, netfile.FirstOrder) },
		"insert edge": func() error { return m.InsertEdge(1, 2, 3, netfile.FirstOrder) },
		"delete edge": func() error { return m.DeleteEdge(1, 2, netfile.FirstOrder) },
	} {
		if err := op(); err == nil || !strings.Contains(err.Error(), "before Build") {
			t.Errorf("%s before Build: %v, want the \"before Build\" error", name, err)
		}
	}
	if m.File() != nil {
		t.Fatal("a rejected mutation created a file")
	}
}

func TestSmallPageRejected(t *testing.T) {
	if _, err := New(Config{PageSize: 64}); err == nil {
		t.Fatal("tiny page size accepted")
	}
}

func TestUniformRandomPointsSplitEvenly(t *testing.T) {
	// A uniform cloud exercises repeated scale extension.
	g := graph.RandomGeometric(400, 0.9, geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 10, Y: 10}), 9)
	m, err := New(Config{PageSize: 512, PoolPages: 32})
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		t.Fatal(err)
	}
	if err := m.Validate(); err != nil {
		t.Fatal(err)
	}
}
