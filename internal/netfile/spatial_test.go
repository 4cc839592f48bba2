package netfile

import (
	"math"
	"math/rand"
	"sort"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/partition"
)

// buildFileSpatial bulk-loads the road map with the given spatial index
// kind.
func buildFileSpatial(t *testing.T, g *graph.Network, kind SpatialKind) *File {
	t.Helper()
	f, err := Create(Options{PageSize: 1024, PoolPages: 32, Bounds: g.Bounds(), Spatial: kind})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := partition.ClusterNodesIntoPages(g, StoredSizer(g), PageBudget(1024), &partition.RatioCut{}, rand.New(rand.NewSource(1)))
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, pages); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestSpatialKindString(t *testing.T) {
	if SpatialZOrder.String() != "zorder" || SpatialRTree.String() != "rtree" {
		t.Fatal("kind names wrong")
	}
	if SpatialKind(9).String() == "" {
		t.Fatal("unknown kind empty")
	}
}

func TestRangeQueryBothIndexesAgree(t *testing.T) {
	g := testNetwork(t)
	zf := buildFileSpatial(t, g, SpatialZOrder)
	rf := buildFileSpatial(t, g, SpatialRTree)
	b := g.Bounds()
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 12; trial++ {
		x := b.Min.X + rng.Float64()*b.Width()
		y := b.Min.Y + rng.Float64()*b.Height()
		rect := geom.NewRect(geom.Point{X: x, Y: y},
			geom.Point{X: x + rng.Float64()*b.Width()/2, Y: y + rng.Float64()*b.Height()/2})
		want := map[graph.NodeID]bool{}
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			if rect.Contains(n.Pos) {
				want[id] = true
			}
		}
		for name, f := range map[string]*File{"zorder": zf, "rtree": rf} {
			got, err := f.RangeQuery(rect)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != len(want) {
				t.Fatalf("trial %d %s: %d records, want %d", trial, name, len(got), len(want))
			}
			for _, r := range got {
				if !want[r.ID] {
					t.Fatalf("trial %d %s: unexpected %d", trial, name, r.ID)
				}
			}
		}
	}
}

func TestNearestBothIndexesMatchBruteForce(t *testing.T) {
	g := testNetwork(t)
	zf := buildFileSpatial(t, g, SpatialZOrder)
	rf := buildFileSpatial(t, g, SpatialRTree)
	b := g.Bounds()
	rng := rand.New(rand.NewSource(15))

	bruteforce := func(p geom.Point, k int) []float64 {
		var ds []float64
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			ds = append(ds, math.Hypot(n.Pos.X-p.X, n.Pos.Y-p.Y))
		}
		sort.Float64s(ds)
		return ds[:k]
	}

	for trial := 0; trial < 15; trial++ {
		p := geom.Point{
			X: b.Min.X + rng.Float64()*b.Width()*1.2 - b.Width()*0.1, // sometimes outside
			Y: b.Min.Y + rng.Float64()*b.Height()*1.2 - b.Height()*0.1,
		}
		k := 1 + rng.Intn(8)
		want := bruteforce(p, k)
		for name, f := range map[string]*File{"zorder": zf, "rtree": rf} {
			got, err := f.Nearest(p, k)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if len(got) != k {
				t.Fatalf("trial %d %s: %d results, want %d", trial, name, len(got), k)
			}
			for i, rec := range got {
				d := math.Hypot(rec.Pos.X-p.X, rec.Pos.Y-p.Y)
				if math.Abs(d-want[i]) > 1e-9 {
					t.Fatalf("trial %d %s: rank %d dist %f, want %f", trial, name, i, d, want[i])
				}
			}
		}
	}
	// A point far off the map: the window grows until it holds the map.
	far := geom.Point{X: b.Max.X + 10*b.Width(), Y: b.Max.Y + 10*b.Height()}
	for name, f := range map[string]*File{"zorder": zf, "rtree": rf} {
		got, err := f.Nearest(far, 2)
		if err != nil || len(got) != 2 {
			t.Fatalf("%s: far point: %d results, %v", name, len(got), err)
		}
		for i, want := range bruteforce(far, 2) {
			if d := math.Hypot(got[i].Pos.X-far.X, got[i].Pos.Y-far.Y); math.Abs(d-want) > 1e-9 {
				t.Fatalf("%s: far point rank %d dist %f, want %f", name, i, d, want)
			}
		}
	}
	// Degenerate cases.
	if out, err := zf.Nearest(geom.Point{}, 0); err != nil || out != nil {
		t.Fatalf("k=0: %v %v", out, err)
	}
	all, err := rf.Nearest(geom.Point{}, g.NumNodes()+100)
	if err != nil || len(all) != g.NumNodes() {
		t.Fatalf("k>n: %d, %v", len(all), err)
	}
}

func TestSpatialIndexMaintainedUnderUpdates(t *testing.T) {
	for _, kind := range []SpatialKind{SpatialZOrder, SpatialRTree} {
		t.Run(kind.String(), func(t *testing.T) {
			g := testNetwork(t)
			f := buildFileSpatial(t, g, kind)
			ids := g.NodeIDs()
			rng := rand.New(rand.NewSource(16))
			// Delete 30 nodes; they must vanish from spatial results.
			gone := map[graph.NodeID]bool{}
			for i := 0; i < 30; i++ {
				id := ids[rng.Intn(len(ids))]
				if gone[id] {
					continue
				}
				rec, err := f.DeleteRecord(id)
				if err != nil {
					t.Fatal(err)
				}
				if err := f.RemoveNeighborLinks(rec); err != nil {
					t.Fatal(err)
				}
				gone[id] = true
			}
			all, err := f.RangeQuery(g.Bounds())
			if err != nil {
				t.Fatal(err)
			}
			if len(all) != g.NumNodes()-len(gone) {
				t.Fatalf("range query after deletes = %d, want %d", len(all), g.NumNodes()-len(gone))
			}
			for _, r := range all {
				if gone[r.ID] {
					t.Fatalf("deleted node %d still in spatial index", r.ID)
				}
			}
		})
	}
}
