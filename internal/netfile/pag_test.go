package netfile

import (
	"cmp"
	"reflect"
	"slices"
	"testing"

	"ccam/internal/storage"
)

// checkHints checks the file (File.Check compares every page's PAG
// crossings with a scan of the records) and asserts that the summary
// ranks every live page's PAG neighbors most crossing edges first, lower
// page id first among equals, and that some page has neighbors.
func checkHints(t *testing.T, f *File) {
	t.Helper()
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	ranked := 0
	for _, pid := range f.Pages() {
		nbrs := f.PAG().Neighbors(pid)
		sorted := slices.IsSortedFunc(nbrs, func(a, b PageCount) int {
			return cmp.Or(cmp.Compare(b.Edges, a.Edges), cmp.Compare(a.Page, b.Page))
		})
		if !sorted {
			t.Fatalf("page %d: neighbors not ranked: %v", pid, nbrs)
		}
		if len(nbrs) > 0 {
			ranked++
		}
	}
	if ranked == 0 {
		t.Fatal("no page has PAG neighbors")
	}
}

// TestPrefetchHintsMatchPlacement: a bulk-loaded file ranks each page's
// neighbor pages by cross-page edge count. (The ranking once fed the
// prefetcher's hints, hence the names here; the reorganizer and the
// planner read it now, through PAG().Neighbors.)
func TestPrefetchHintsMatchPlacement(t *testing.T) {
	g := testNetwork(t)
	checkHints(t, buildFile(t, g, 1024, 16))
}

// TestPrefetchHintsFollowMutations: the ranking is derived from the PAG
// summary, so a page a mutation touched keeps an exact ranking, and a
// page emptied and freed drops out of every other page's answer.
func TestPrefetchHintsFollowMutations(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	pid := f.Pages()[0]
	nodes, err := f.NodesOnPage(pid)
	if err != nil || len(nodes) < 2 {
		t.Fatalf("NodesOnPage(%d) = %v, %v", pid, nodes, err)
	}
	rec, err := f.DeleteRecord(nodes[0])
	if err != nil {
		t.Fatal(err)
	}
	if err := f.RemoveNeighborLinks(rec); err != nil {
		t.Fatal(err)
	}
	if len(f.PAG().Neighbors(pid)) == 0 {
		t.Fatal("a delete on the page left it without PAG neighbors")
	}
	checkHints(t, f)

	// Empty the page into a fresh one and free it.
	dst, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range nodes[1:] {
		if err := f.MoveRecord(id, dst); err != nil {
			t.Fatal(err)
		}
	}
	if err := f.FreePage(pid); err != nil {
		t.Fatal(err)
	}
	if got := f.PAG().Neighbors(pid); got != nil {
		t.Fatalf("freed page still has PAG neighbors: %v", got)
	}
	checkHints(t, f)
}

// TestOpenFromStoreOptsRebuildsHints: reopening a store derives the
// same neighbor ranking BulkLoad's summary gave.
func TestOpenFromStoreOptsRebuildsHints(t *testing.T) {
	g := testNetwork(t)
	st := storage.NewMemStore(1024)
	f, err := Create(Options{PageSize: 1024, PoolPages: 16, Bounds: g.Bounds(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, clusterGroups(t, g, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	f2, err := OpenFromStoreOpts(st, Options{PoolPages: 16, PoolShards: 4})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Pool().Close()
	for _, pid := range f.Pages() {
		if built, reopened := f.PAG().Neighbors(pid), f2.PAG().Neighbors(pid); !reflect.DeepEqual(built, reopened) {
			t.Fatalf("page %d: reopened ranking differs:\nbuilt:    %v\nreopened: %v", pid, built, reopened)
		}
	}
	checkHints(t, f2)
	if f2.Pool().Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", f2.Pool().Shards())
	}
}
