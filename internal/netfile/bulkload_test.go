package netfile

import (
	"context"
	"errors"
	"math/rand"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/partition"
)

// insertBuiltFile loads the same page groups via per-record
// InsertRecordAt (the old, descent-per-key path) as a reference.
func insertBuiltFile(t *testing.T, g *graph.Network, groups [][]graph.NodeID) *File {
	t.Helper()
	f, err := Create(Options{PageSize: 1024, PoolPages: 32, Bounds: g.Bounds()})
	if err != nil {
		t.Fatal(err)
	}
	for _, group := range groups {
		pid, err := f.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		for _, id := range group {
			rec, err := RecordFromNode(g, id)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.InsertRecordAt(rec, pid); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	return f
}

func clusterGroups(t *testing.T, g *graph.Network, pageSize int) [][]graph.NodeID {
	t.Helper()
	groups, err := partition.ClusterNodesIntoPagesOpts(g, StoredSizer(g), PageBudget(pageSize), &partition.RatioCut{}, partition.ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	return groups
}

// TestFileBulkLoadEqualsInsertBuilt is the satellite coverage at the
// file level: the staged bulk load (parallel encode, sequential write,
// bottom-up indexes) must be observationally identical to the
// insert-at-a-time build — same placement, same point lookups, same
// range-scan results. The subtest is named for the spatial index both
// builds carry.
func TestFileBulkLoadEqualsInsertBuilt(t *testing.T) {
	t.Run("zorder", testBulkLoadEqualsInsertBuilt)
}

func testBulkLoadEqualsInsertBuilt(t *testing.T) {
	g := testNetwork(t)
	groups := clusterGroups(t, g, 1024)
	bulk := buildFile(t, g, 1024, 32)
	ref := insertBuiltFile(t, g, groups)

	bp, rp := bulk.Placement(), ref.Placement()
	if len(bp) != len(rp) {
		t.Fatalf("placement sizes %d vs %d", len(bp), len(rp))
	}
	for id, pid := range rp {
		if bp[id] != pid {
			t.Fatalf("node %d placed on page %d, reference %d", id, bp[id], pid)
		}
	}
	for _, id := range g.NodeIDs() {
		br, err := bulk.Find(id)
		if err != nil {
			t.Fatalf("Find(%d): %v", id, err)
		}
		rr, err := ref.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		if br.ID != rr.ID || len(br.Succs) != len(rr.Succs) || br.Pos != rr.Pos {
			t.Fatalf("record %d differs between builds", id)
		}
	}
	b := g.Bounds()
	rng := rand.New(rand.NewSource(3))
	for trial := 0; trial < 10; trial++ {
		x := b.Min.X + rng.Float64()*b.Width()
		y := b.Min.Y + rng.Float64()*b.Height()
		rect := geom.NewRect(geom.Point{X: x, Y: y},
			geom.Point{X: x + rng.Float64()*b.Width()/3, Y: y + rng.Float64()*b.Height()/3})
		got, err := bulk.RangeQueryCtx(context.Background(), rect)
		if err != nil {
			t.Fatal(err)
		}
		want, err := ref.RangeQueryCtx(context.Background(), rect)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("range query %d vs %d results", len(got), len(want))
		}
		seen := map[graph.NodeID]bool{}
		for _, r := range got {
			seen[r.ID] = true
		}
		for _, r := range want {
			if !seen[r.ID] {
				t.Fatalf("range query missing %d", r.ID)
			}
		}
	}
}

// TestFileBulkLoadDuplicateZValues pins the tie-break: nodes sharing a
// grid cell collapse to one Z value, and only the node id in the key's
// low bits keeps the bulk-built runs strictly ascending.
func TestFileBulkLoadDuplicateZValues(t *testing.T) {
	g := graph.NewNetwork()
	// 40 nodes on 4 distinct positions -> 10 identical Z values each.
	for i := graph.NodeID(0); i < 40; i++ {
		pos := geom.Point{X: float64(i % 4), Y: float64(i % 4)}
		if err := g.AddNode(graph.Node{ID: i, Pos: pos}); err != nil {
			t.Fatal(err)
		}
	}
	for i := graph.NodeID(0); i < 39; i++ {
		g.AddEdge(graph.Edge{From: i, To: i + 1, Cost: 1, Weight: 1})
		g.AddEdge(graph.Edge{From: i + 1, To: i, Cost: 1, Weight: 1})
	}
	f, err := Create(Options{PageSize: 1024, PoolPages: 8, Bounds: g.Bounds()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, clusterGroups(t, g, 1024)); err != nil {
		t.Fatal(err)
	}
	// Every co-located node must be individually findable and appear in
	// a range query covering its cell.
	recs, err := f.RangeQueryCtx(context.Background(), geom.NewRect(geom.Point{X: -0.5, Y: -0.5}, geom.Point{X: 0.5, Y: 0.5}))
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 10 {
		t.Fatalf("cell (0,0) returned %d records, want 10", len(recs))
	}
	for _, id := range g.NodeIDs() {
		if _, err := f.Find(id); err != nil {
			t.Fatalf("Find(%d): %v", id, err)
		}
	}
}

func TestFileBulkLoadRejectsDuplicates(t *testing.T) {
	g := testNetwork(t)
	groups := clusterGroups(t, g, 1024)
	// Repeat one node in an extra group of its own.
	bad := append(append([][]graph.NodeID{}, groups...), []graph.NodeID{groups[0][0]})
	f, err := Create(Options{PageSize: 1024, PoolPages: 32, Bounds: g.Bounds()})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, bad); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("duplicate node = %v", err)
	}
	// Loading into a non-empty file must fail.
	f2 := buildFile(t, g, 1024, 32)
	if err := f2.BulkLoad(g, groups); err == nil {
		t.Fatal("bulk load into non-empty file accepted")
	}
}
