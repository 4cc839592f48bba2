package netfile

import (
	"reflect"
	"sort"
	"testing"

	"ccam/internal/storage"
)

// crossPageCounts recomputes, from the file's own placement, how many
// PAG edges page pid shares with every other page — the ground truth
// the hints must agree with.
func crossPageCounts(t *testing.T, f *File, pid storage.PageID) map[storage.PageID]int {
	t.Helper()
	placement := f.Placement()
	recs, err := f.RecordsOnPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	counts := make(map[storage.PageID]int)
	for _, r := range recs {
		for _, s := range r.Succs {
			if q, ok := placement[s.To]; ok && q != pid {
				counts[q]++
			}
		}
		for _, p := range r.Preds {
			if q, ok := placement[p]; ok && q != pid {
				counts[q]++
			}
		}
	}
	return counts
}

// wantNeighbors ranks pid's PAG neighbors from a scan of the file — most
// shared edges first, lower page id first among equals: what
// PAG().Neighbors must answer.
func wantNeighbors(t *testing.T, f *File, pid storage.PageID) []PageCount {
	t.Helper()
	var out []PageCount
	for q, c := range crossPageCounts(t, f, pid) {
		out = append(out, PageCount{Page: q, Edges: c})
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Edges != out[j].Edges {
			return out[i].Edges > out[j].Edges
		}
		return out[i].Page < out[j].Page
	})
	return out
}

// checkHints asserts that the summary ranks every live page's PAG
// neighbors exactly as a scan of the file does, crossing-edge counts
// included, and so never names the page itself or a dead page.
func checkHints(t *testing.T, f *File) {
	t.Helper()
	ranked := 0
	for _, pid := range f.Pages() {
		want, got := wantNeighbors(t, f, pid), f.PAG().Neighbors(pid)
		if len(want) == 0 && len(got) == 0 {
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("page %d: summary ranks %v, scan ranks %v", pid, got, want)
		}
		ranked++
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
