package netfile

import (
	"fmt"
	"maps"
	"math"
	"slices"

	"ccam/internal/buffer"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// checkedRecord is one live record as Check's scan found it: its page
// and where its lists sit in the scan's id run.
type checkedRecord struct {
	id    graph.NodeID
	pid   storage.PageID
	lists pagLists
}

// Check verifies the file against its pages at the live end, reading
// each live page once through the pool after settling the mutation in
// progress (as PAG does). Each page must pass SlottedPage.Validate and
// match its free-space map entry; records and the node index agree rid
// for rid (so each node is stored once); the Z-order index holds one key
// per record, at its position; each edge is in its tail's successor-list
// and its head's predecessor-list once, both ends stored, no loops; and
// the PAG summary equals one rebuilt from the records through charge, as
// open fills it, at the summary's own weights — counts, every page's
// tallies and crossings, the weights map, and the weighted sums within
// a relative 1e-9. The first finding is returned: it names its page and
// wraps storage.ErrCorruptedPage, ErrIndexMismatch or ErrInconsistent.
// The owner serializes Check against mutations.
func (f *File) Check() error {
	f.SettlePAG()
	for pid := range f.free {
		if !f.pages[pid] {
			return checkFinding(pid, ErrInconsistent, "the free-space map lists a page that is not live")
		}
	}
	indexed := f.overlay.Load().rids(buffer.LiveLSN)
	recs := make([]checkedRecord, 0, len(indexed))
	at := make(map[graph.NodeID]int, len(indexed))
	keys := make([]uint64, 0, len(indexed))
	var lists pagPending // its id run holds every record's lists
	for _, pid := range f.Pages() {
		err := f.withPage(pid, func(sp *storage.SlottedPage) (bool, error) {
			if err := sp.Validate(); err != nil {
				return false, err
			}
			if free, ok := f.free[pid]; !ok || free != sp.FreeSpace() {
				return false, fmt.Errorf("%w: the free-space map says %d bytes free (listed %v), the page has %d", ErrInconsistent, free, ok, sp.FreeSpace())
			}
			return false, eachRecord(sp, func(slot int, v recordView) error {
				id := v.id()
				if r, ok := indexed[id]; !ok {
					return fmt.Errorf("%w: node %d at slot %d is not indexed, or is stored twice", ErrIndexMismatch, id, slot)
				} else if r != f.rid(pid, slot) {
					return fmt.Errorf("%w: node %d is at slot %d but indexed at page %d slot %d",
						ErrIndexMismatch, id, slot, f.ridPage(r), f.ridSlot(r))
				}
				delete(indexed, id)
				at[id] = len(recs)
				recs = append(recs, checkedRecord{id: id, pid: pid, lists: lists.keep(v)})
				keys = append(keys, f.spatial.key(v.pos(), id))
				return nil
			})
		})
		if err != nil {
			return fmt.Errorf("netfile: check: page %d: %w", pid, err)
		}
	}
	// Each record found took its own entry out: an entry left names a
	// slot that does not hold its node.
	if len(indexed) > 0 {
		id := graph.InvalidNodeID
		for n := range indexed {
			id = min(id, n)
		}
		r := indexed[id]
		return checkFinding(f.ridPage(r), ErrIndexMismatch, "node %d is indexed at slot %d, which does not hold it", id, f.ridSlot(r))
	}
	if err := f.checkSpatial(keys); err != nil {
		return err
	}
	for _, r := range recs {
		for side, list := range [2][]graph.NodeID{lists.succs(r.lists), lists.preds(r.lists)} {
			for i, other := range list {
				o, stored := at[other]
				why := ""
				switch {
				case other == r.id:
					why = "is the node itself"
				case slices.Contains(list[:i], other):
					why = "is listed twice"
				case !stored:
					why = "is not stored"
				case !slices.Contains([2][]graph.NodeID{lists.preds(recs[o].lists), lists.succs(recs[o].lists)}[side], r.id):
					why = fmt.Sprintf("is on page %d and does not list it back", recs[o].pid)
				}
				if why != "" {
					return checkFinding(r.pid, ErrInconsistent, "node %d's %s %d %s", r.id, [2]string{"successor", "predecessor"}[side], other, why)
				}
			}
		}
	}
	return f.checkPAG(recs, at, &lists)
}

// checkFinding wraps sentinel in a Check finding about page pid
// (storage.InvalidPageID: about a node no page stores).
func checkFinding(pid storage.PageID, sentinel error, format string, args ...any) error {
	where := fmt.Sprintf("page %d", pid)
	if pid == storage.InvalidPageID {
		where = "no page"
	}
	return fmt.Errorf("netfile: check: %s: %w: %s", where, sentinel, fmt.Sprintf(format, args...))
}

// checkSpatial compares the Z-order index's run with want, the keys of
// the stored records.
func (f *File) checkSpatial(want []uint64) error {
	f.spatMu.RLock()
	defer f.spatMu.RUnlock()
	if _, err := f.spatial.checkShape(); err != nil {
		return fmt.Errorf("netfile: check: %w", err)
	}
	slices.Sort(want)
	got := slices.Concat(f.spatial.blocks...)
	for i := range max(len(got), len(want)) {
		k, what := uint64(0), ""
		switch {
		case i == len(got) || i < len(want) && want[i] < got[i]:
			k, what = want[i], "has no Z-order key at its position"
		case i == len(want) || want[i] > got[i]:
			k, what = got[i], "has a Z-order key that no record at its position has"
		default:
			continue
		}
		id := graph.NodeID(k & 0xffffffff)
		return checkFinding(f.livePage(id), ErrInconsistent, "node %d %s", id, what)
	}
	return nil
}

// checkPAG rebuilds the summary from recs — each successor edge charged
// on its ends' pages at the summary's weight — and compares the two.
func (f *File) checkPAG(recs []checkedRecord, at map[graph.NodeID]int, lists *pagPending) error {
	f.pagMu.RLock()
	defer f.pagMu.RUnlock()
	s, ref := &f.pag, newPAGSummary()
	ref.records = len(recs)
	for _, r := range recs {
		for _, to := range lists.succs(r.lists) {
			e := pagEdge{r.id, to}
			ref.charge(e, r.pid, recs[at[to]].pid, s.weight(e))
		}
	}
	for e := range s.weights {
		if _, ok := ref.weights[e]; !ok {
			return checkFinding(f.livePage(e.from), ErrInconsistent, "the PAG summary weighs edge %d->%d, which no record holds", e.from, e.to)
		}
	}
	pids := make([]storage.PageID, 0, len(s.pages)+len(ref.pages))
	for _, m := range []map[storage.PageID]*pagPage{s.pages, ref.pages} {
		for pid := range m {
			pids = append(pids, pid)
		}
	}
	slices.Sort(pids)
	for _, pid := range slices.Compact(pids) {
		got, want := s.pages[pid], ref.pages[pid]
		if got == nil || want == nil || got.incident != want.incident || got.split != want.split || !maps.Equal(got.nbrs, want.nbrs) {
			return checkFinding(pid, ErrInconsistent, "the PAG summary tallies %+v, the records %+v", got, want)
		}
	}
	near := func(got, want float64) bool { return math.Abs(got-want) <= 1e-9*max(1, math.Abs(want)) }
	if s.records != ref.records || s.edges != ref.edges || s.unsplit != ref.unsplit || !near(s.wedges, ref.wedges) || !near(s.wunsplit, ref.wunsplit) {
		return fmt.Errorf("netfile: check: %w: the PAG summary counts %d records, %d/%d edges unsplit weighing %v/%v; the records %d, %d/%d, %v/%v",
			ErrInconsistent, s.records, s.unsplit, s.edges, s.wunsplit, s.wedges, ref.records, ref.unsplit, ref.edges, ref.wunsplit, ref.wedges)
	}
	return nil
}
