package ccam

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/storage"
)

// storedBytes is what the records of page pid take of its budget.
func storedBytes(t testing.TB, f *netfile.File, pid storage.PageID) int {
	t.Helper()
	recs, err := f.RecordsOnPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	n := 0
	for _, r := range recs {
		n += r.EncodedSize() + storage.PerRecordOverhead
	}
	return n
}

// adjacentPairs returns every PAG-adjacent page pair of the file, lower
// page id first.
func adjacentPairs(t testing.TB, m *Method) [][]storage.PageID {
	t.Helper()
	var pairs [][]storage.PageID
	for _, p := range m.File().Pages() {
		nbrs, err := m.NbrPages(p)
		if err != nil {
			t.Fatal(err)
		}
		for _, q := range nbrs {
			if p < q {
				pairs = append(pairs, []storage.PageID{p, q})
			}
		}
	}
	return pairs
}

// needsBothPages reports whether the records of a page pair are too
// many bytes for one page, so that reorganizing the pair keeps both.
func needsBothPages(t testing.TB, f *netfile.File, pair []storage.PageID) bool {
	t.Helper()
	return storedBytes(t, f, pair[0])+storedBytes(t, f, pair[1]) > netfile.PageBudget(f.PageSize())
}

// writesOf flushes the pool and returns the data-page writes fn caused.
func writesOf(t testing.TB, f *netfile.File, fn func()) int64 {
	t.Helper()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	before := f.DataIO().Writes
	fn()
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	return f.DataIO().Writes - before
}

// TestReorganizeTwiceWritesNothing: a reorganization leaves its page
// set at a local optimum, so reorganizing the same set again keeps
// every page — no data page is written and the placement is unchanged.
// (Clustering from scratch and laying the groups out by position
// rewrote both pages each time.)
func TestReorganizeTwiceWritesNothing(t *testing.T) {
	m := build(t, roadMap(t), Config{Seed: 2})
	f := m.File()
	moved, tried := 0, 0
	for _, pair := range adjacentPairs(t, m) {
		if !needsBothPages(t, f, pair) {
			continue // a merge frees a page: nothing to do twice
		}
		tried++
		before := m.ReorgStats()
		if err := m.reorganizePages(pair, false); err != nil {
			t.Fatal(err)
		}
		if m.ReorgStats().RecordsMoved > before.RecordsMoved {
			moved++
		}
		placement, kept := f.Placement(), m.ReorgStats().Kept
		writes := writesOf(t, f, func() {
			if err := m.reorganizePages(pair, false); err != nil {
				t.Fatal(err)
			}
		})
		if writes != 0 {
			t.Errorf("pages %v: the second reorganization wrote %d data pages", pair, writes)
		}
		if !reflect.DeepEqual(f.Placement(), placement) {
			t.Errorf("pages %v: the second reorganization changed the placement", pair)
		}
		if m.ReorgStats().Kept != kept+1 {
			t.Errorf("pages %v: the second reorganization was not counted as kept", pair)
		}
	}
	if tried < 50 || moved == 0 {
		t.Errorf("%d page pairs tried, %d first reorganizations moved a record: the second ones prove too little", tried, moved)
	}
}

// oldPartitionReversed is a Bipartitioner that rediscovers the
// placement it is shown, highest page first: each call splits off the
// nodes of the highest-numbered page present.
type oldPartitionReversed struct{ page graph.Placement }

func (oldPartitionReversed) Name() string { return "old-partition-reversed" }

func (p oldPartitionReversed) Bipartition(w *partition.Weighted, _ int, _ *rand.Rand) (top, rest []graph.NodeID, err error) {
	var high storage.PageID
	for _, id := range w.IDs {
		high = max(high, p.page[id])
	}
	for _, id := range w.IDs {
		if p.page[id] == high {
			top = append(top, id)
		} else {
			rest = append(rest, id)
		}
	}
	return top, rest, nil
}

// TestSamePartitionInAnotherOrderRewritesNothing: when clustering from
// scratch returns the partition the pages already hold — here in
// reverse page order — the groups are laid onto the pages they came
// from and nothing is written. (Laid out by position, group i on page
// i, every page was rewritten and every record "moved".)
func TestSamePartitionInAnotherOrderRewritesNothing(t *testing.T) {
	m := build(t, roadMap(t), Config{Seed: 4})
	f := m.File()
	budget := netfile.PageBudget(f.PageSize())
	// Three pages, each more than half full, so the recursion has to cut
	// twice to get back to them.
	var pids []storage.PageID
	for _, p := range f.Pages() {
		if storedBytes(t, f, p) > budget/2 {
			if pids = append(pids, p); len(pids) == 3 {
				break
			}
		}
	}
	if len(pids) < 3 {
		t.Fatal("no three pages more than half full")
	}
	placement := f.Placement()
	m.recluster = oldPartitionReversed{page: placement}
	before := m.ReorgStats()
	writes := writesOf(t, f, func() {
		if err := m.reorganizePages(pids, false); err != nil {
			t.Fatal(err)
		}
	})
	if writes != 0 {
		t.Errorf("reorganizing pages %v into the partition they hold wrote %d data pages", pids, writes)
	}
	if !reflect.DeepEqual(f.Placement(), placement) {
		t.Error("the placement changed")
	}
	want := before
	want.Kept++
	if got := m.ReorgStats(); got != want {
		t.Errorf("ReorgStats = %+v, want %+v", got, want)
	}
}

// TestReorganizePagesInvariants runs 200 mixed updates — node deletes
// and re-inserts, edge inserts and deletes — under each reorganizing
// policy on three seeded maps. After every update it reorganizes a page
// set of the policy's shape around a random node and checks what a
// reorganization must hold: the number of split edges has not risen
// (outside the set nothing moves, so that is the in-set cut), every
// page of the set is within the page budget, and the file passes
// File.Check.
func TestReorganizePagesInvariants(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		for _, policy := range []netfile.Policy{netfile.SecondOrder, netfile.HigherOrder, netfile.Lazy} {
			t.Run(fmt.Sprintf("map%d/%s", seed, policy), func(t *testing.T) {
				opts := graph.MinneapolisLikeOpts()
				opts.Rows, opts.Cols, opts.Seed = 16, 16, seed
				full, err := graph.RoadMap(opts)
				if err != nil {
					t.Fatal(err)
				}
				reorganizeInvariants(t, full, policy, seed)
			})
		}
	}
}

func reorganizeInvariants(t *testing.T, full *graph.Network, policy netfile.Policy, seed int64) {
	cur := full.Clone()
	m := build(t, cur, Config{Seed: seed, LazyEvery: 3})
	f := m.File()
	budget := netfile.PageBudget(f.PageSize())
	rng := rand.New(rand.NewSource(seed * 31))
	var gone []graph.NodeID
	var added [][2]graph.NodeID
	checked := 0
	for step := 0; step < 200; step++ {
		ids := cur.NodeIDs()
		x := ids[rng.Intn(len(ids))]
		switch r := rng.Intn(4); {
		case r == 0 && len(gone) < 40:
			if err := m.Delete(x, policy); err != nil {
				t.Fatalf("step %d: Delete(%d): %v", step, x, err)
			}
			cur.RemoveNode(x)
			gone = append(gone, x)
			x = cur.Neighbors(cur.NodeIDs()[rng.Intn(cur.NumNodes())])[0] // reorganize around a survivor
		case r == 1 && len(gone) > 0:
			x, gone = gone[0], gone[1:]
			op := insertOpRestricted(t, full, cur, x)
			if err := m.Insert(op, policy); err != nil {
				t.Fatalf("step %d: Insert(%d): %v", step, x, err)
			}
			mirrorInsert(t, cur, op)
		case r == 2 && len(added) > 0:
			e := added[0]
			added = added[1:]
			if _, err := cur.Edge(e[0], e[1]); err != nil {
				continue // went with a deleted endpoint
			}
			if err := m.DeleteEdge(e[0], e[1], policy); err != nil {
				t.Fatalf("step %d: DeleteEdge(%d,%d): %v", step, e[0], e[1], err)
			}
			cur.RemoveEdge(e[0], e[1])
		default:
			y := ids[rng.Intn(len(ids))]
			if x == y || cur.AddEdge(graph.Edge{From: x, To: y, Cost: 1, Weight: 1}) != nil {
				continue
			}
			if err := m.InsertEdge(x, y, 1, policy); err != nil {
				t.Fatalf("step %d: InsertEdge(%d,%d): %v", step, x, y, err)
			}
			added = append(added, [2]graph.NodeID{x, y})
		}

		// The policy's page set around x (paper Table 1; Lazy reorganizes
		// a page with its PAG neighbors).
		px, err := f.PageOf(x)
		if err != nil {
			t.Fatal(err)
		}
		pids := []storage.PageID{px}
		if policy != netfile.Lazy {
			rec, err := f.Find(x)
			if err != nil {
				t.Fatal(err)
			}
			more, err := f.PagesOfNeighbors(rec.Neighbors())
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, more...)
		}
		if policy != netfile.SecondOrder {
			more, err := m.NbrPages(px)
			if err != nil {
				t.Fatal(err)
			}
			pids = append(pids, more...)
		}
		slices.Sort(pids)
		pids = slices.Compact(pids)
		if len(pids) < 2 {
			continue
		}
		usable := true
		for _, p := range pids {
			usable = usable && storedBytes(t, f, p) <= budget
		}
		before := f.PAG().Stats()
		if err := m.reorganizePages(pids, false); err != nil {
			t.Fatalf("step %d: reorganize %v: %v", step, pids, err)
		}
		after := f.PAG().Stats()
		if after.Edges != before.Edges || after.Nodes != before.Nodes {
			t.Fatalf("step %d: reorganizing %v changed the contents: %+v -> %+v", step, pids, before, after)
		}
		if usable && after.Unsplit < before.Unsplit {
			t.Fatalf("step %d: reorganizing %v raised the cut: unsplit edges %d -> %d", step, pids, before.Unsplit, after.Unsplit)
		}
		live := f.Pages()
		for _, p := range pids {
			if _, ok := slices.BinarySearch(live, p); !ok {
				continue // emptied and freed
			}
			if n := storedBytes(t, f, p); n > budget {
				t.Fatalf("step %d: page %d holds %d bytes after its reorganization, the budget is %d", step, p, n, budget)
			}
		}
		if err := f.Check(); err != nil {
			t.Fatalf("step %d: after reorganizing %v: %v", step, pids, err)
		}
		checked++
	}
	if checked < 100 {
		t.Fatalf("only %d of 200 steps reorganized a page set", checked)
	}
	checkConsistency(t, m, cur)
}

// BenchmarkReorganizeTwoPages measures the write path's most common
// reorganization (three in four on the benchmark's write mix): a
// PAG-adjacent page pair is read, projected onto the working set,
// refined from the placement it has, found to be a local optimum and
// kept. The laps before the timer bring every pair there.
func BenchmarkReorganizeTwoPages(b *testing.B) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		b.Fatal(err)
	}
	m, err := New(Config{File: netfile.Options{PageSize: 2048, PoolPages: 256}, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		b.Fatal(err)
	}
	var pairs [][]storage.PageID
	for settled := false; !settled; {
		moved := m.ReorgStats().RecordsMoved
		pairs = pairs[:0]
		for _, pair := range adjacentPairs(b, m) {
			if !needsBothPages(b, m.File(), pair) {
				continue // would merge, and free a page of a later pair
			}
			if err := m.reorganizePages(pair, false); err != nil {
				b.Fatal(err)
			}
			pairs = append(pairs, pair)
		}
		settled = m.ReorgStats().RecordsMoved == moved
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := m.reorganizePages(pairs[i%len(pairs)], false); err != nil {
			b.Fatal(err)
		}
	}
}

// TestWorkingSet pins the reorganizer's projection of records onto the
// partitioner's working set: links are read off successor-lists, a pair
// linked both ways is one entry weighing 2, rows are sorted, an entry
// naming a node outside the set is no edge and no node links to itself,
// and a predecessor-list that lags the other end's successor-list, as
// while an insert is being linked, neither adds nor drops an edge.
func TestWorkingSet(t *testing.T) {
	rec := func(id graph.NodeID, succs []graph.NodeID, preds ...graph.NodeID) *netfile.Record {
		r := &netfile.Record{ID: id, Preds: preds}
		for _, s := range succs {
			r.AddSucc(s, 1)
		}
		return r
	}
	type row = []partition.WEdge
	for _, tc := range []struct {
		name string
		recs []*netfile.Record
		want []row
	}{
		{"pair linked both ways",
			[]*netfile.Record{rec(1, []graph.NodeID{2}, 2), rec(2, []graph.NodeID{1}, 1)},
			[]row{{{To: 1, W: 2}}, {{To: 0, W: 2}}}},
		{"rows sorted",
			[]*netfile.Record{rec(1, []graph.NodeID{4, 2}, 3), rec(2, nil, 1), rec(3, []graph.NodeID{1}), rec(4, nil, 1)},
			[]row{{{To: 1, W: 1}, {To: 2, W: 1}, {To: 3, W: 1}}, {{To: 0, W: 1}}, {{To: 0, W: 1}}, {{To: 0, W: 1}}}},
		{"outside the set",
			[]*netfile.Record{rec(1, []graph.NodeID{9}, 8), rec(2, nil)},
			[]row{{}, {}}},
		{"no self link",
			[]*netfile.Record{rec(1, []graph.NodeID{1, 2}, 1), rec(2, nil, 1)},
			[]row{{{To: 1, W: 1}}, {{To: 0, W: 1}}}},
		{"lagging predecessor-lists",
			[]*netfile.Record{rec(1, []graph.NodeID{2}, 3), rec(2, nil), rec(3, nil)},
			[]row{{{To: 1, W: 1}}, {{To: 0, W: 1}}, {}}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			w := workingSet(tc.recs)
			total := 0
			for i, r := range tc.recs {
				size := r.EncodedSize() + storage.PerRecordOverhead
				if w.IDs[i] != r.ID || w.Size[i] != size {
					t.Fatalf("node %d is %d of %d bytes, want %d of %d", i, w.IDs[i], w.Size[i], r.ID, size)
				}
				total += size
			}
			if w.N() != len(tc.recs) || w.Total != total {
				t.Fatalf("%d nodes of %d bytes, want %d of %d", w.N(), w.Total, len(tc.recs), total)
			}
			for u, want := range tc.want {
				if got := w.Row(u); !slices.Equal(got, want) {
					t.Errorf("row %d = %v, want %v", u, got, want)
				}
			}
		})
	}
}
