package netfile

import (
	"reflect"
	"sort"
	"testing"
	"time"

	"ccam/internal/graph"
	"ccam/internal/storage"
)

// pollUntil waits for cond with a deadline, for the asynchronous
// prefetch assertions.
func pollUntil(t *testing.T, what string, cond func() bool) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for !cond() {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
		time.Sleep(time.Millisecond)
	}
}

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

// wantFirstRing ranks pid's PAG neighbors from a scan of the file — most
// shared edges first, lower page id first among equals — and keeps the
// hint fanout: what PrefetchHints must lead with.
func wantFirstRing(t *testing.T, f *File, pid storage.PageID) []storage.PageID {
	t.Helper()
	counts := crossPageCounts(t, f, pid)
	var out []storage.PageID
	for q := range counts {
		out = append(out, q)
	}
	sort.Slice(out, func(i, j int) bool {
		if counts[out[i]] != counts[out[j]] {
			return counts[out[i]] > counts[out[j]]
		}
		return out[i] < out[j]
	})
	if len(out) > pagHintFanout {
		out = out[:pagHintFanout]
	}
	return out
}

// checkHints asserts that every live page's hints lead with its scanned
// first ring, never name the page itself, a dead page or a page twice,
// and add at most one second-ring page per first-ring page.
func checkHints(t *testing.T, f *File) {
	t.Helper()
	live := map[storage.PageID]bool{}
	for _, pid := range f.Pages() {
		live[pid] = true
	}
	hinted := 0
	for pid := range live {
		first := wantFirstRing(t, f, pid)
		got := f.PrefetchHints(pid)
		if len(got) < len(first) || len(got) > 2*len(first) {
			t.Fatalf("page %d: %d hints for a first ring of %d", pid, len(got), len(first))
		}
		for i := range first {
			if got[i] != first[i] {
				t.Fatalf("page %d: hints %v, scan ranks %v first", pid, got, first)
			}
		}
		seen := map[storage.PageID]bool{pid: true}
		for _, q := range got {
			if seen[q] || !live[q] {
				t.Fatalf("page %d: hint %d is the page itself, repeated or dead (%v)", pid, q, got)
			}
			seen[q] = true
		}
		if len(got) > 0 {
			hinted++
		}
	}
	if hinted == 0 {
		t.Fatal("no page has hints")
	}
}

// TestPrefetchHintsMatchPlacement: a bulk-loaded file ranks each page's
// most-connected neighbor pages by cross-page edge count, capped at the
// hint fanout.
func TestPrefetchHintsMatchPlacement(t *testing.T) {
	g := testNetwork(t)
	checkHints(t, buildFile(t, g, 1024, 16))
}

// TestPrefetchHintsFollowMutations: hints are derived from the PAG
// summary, so a page a mutation touched keeps exact hints, and a page
// emptied and freed drops out of every other page's answer.
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
	if len(f.PrefetchHints(pid)) == 0 {
		t.Fatal("a delete on the page left it without hints")
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
	if got := f.PrefetchHints(pid); got != nil {
		t.Fatalf("freed page still has hints: %v", got)
	}
	checkHints(t, f)
}

// TestOpenFromStoreOptsRebuildsHints: reopening a store derives the
// same hints BulkLoad's summary gave, so prefetch survives restart.
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
	f2, err := OpenFromStoreOpts(st, Options{PoolPages: 16, PoolShards: 4, Prefetch: true})
	if err != nil {
		t.Fatal(err)
	}
	defer f2.Pool().Close()
	for _, pid := range f.Pages() {
		if built, reopened := f.PrefetchHints(pid), f2.PrefetchHints(pid); !reflect.DeepEqual(built, reopened) {
			t.Fatalf("page %d: reopened hints differ:\nbuilt:    %v\nreopened: %v", pid, built, reopened)
		}
	}
	checkHints(t, f2)
	if f2.Pool().Shards() != 4 {
		t.Fatalf("Shards() = %d, want 4", f2.Pool().Shards())
	}
}

// TestPrefetchEndToEnd: with Options.Prefetch, a Find that misses pulls
// the page's PAG neighbors into the pool so an immediately following
// traversal step hits.
func TestPrefetchEndToEnd(t *testing.T) {
	g := testNetwork(t)
	st := storage.NewMemStore(1024)
	f, err := Create(Options{
		PageSize: 1024, PoolPages: 16, PoolShards: 4,
		Bounds: g.Bounds(), Store: st,
		Prefetch: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer f.Pool().Close()
	if err := f.BulkLoad(g, clusterGroups(t, g, 1024)); err != nil {
		t.Fatal(err)
	}
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}

	// Find any node whose page has hints.
	var id graph.NodeID
	var pid storage.PageID
	for _, p := range f.Pages() {
		if len(f.PrefetchHints(p)) == 0 {
			continue
		}
		nodes, err := f.NodesOnPage(p)
		if err != nil {
			t.Fatal(err)
		}
		id, pid = nodes[0], p
		break
	}
	if err := f.ResetIO(); err != nil {
		t.Fatal(err)
	}
	f.Pool().ResetStats()
	if _, err := f.Find(id); err != nil {
		t.Fatal(err)
	}
	want := f.PrefetchHints(pid)
	pollUntil(t, "hinted pages resident", func() bool {
		for _, q := range want {
			if !f.Pool().Contains(q) {
				return false
			}
		}
		return true
	})
	ps := f.Pool().PrefetchStats()
	if ps.Issued == 0 || ps.Loaded == 0 {
		t.Fatalf("prefetch idle after a demand miss: %+v", ps)
	}
	// The demand counters saw only the Find's own miss.
	if s := f.Pool().Stats(); s.Fetches != 1 || s.Misses != 1 {
		t.Fatalf("demand stats polluted: %+v", s)
	}
}
