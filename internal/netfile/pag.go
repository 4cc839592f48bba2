package netfile

import (
	"cmp"
	"slices"

	"ccam/internal/buffer"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// This file is the file's Page Access Graph summary: the one in-memory
// account of the facts the paper measures over the PAG (§2.4, §3) — how
// many edges there are, how they fall across data pages and what they
// weigh. It is the size of the pages, not of the records: per-page
// incident/split tallies, per-page-pair crossing counts, the running
// CRR/WCRR sums, the record count and the access weights that are not 1.
// It keeps no adjacency — the records are the adjacency — and no
// node→page map: tallies resolve pages through the snapshot overlay.
//
// When it changes: only at logical-mutation boundaries, where every
// stored record's lists agree (each edge sits in its tail's
// successor-list and its head's predecessor-list, both ends stored).
// Between boundaries the write primitives only note what they touch:
// the first time a mutation overwrites, removes or stores a node's
// record, the node's lists and page as the summary counts them
// (pagCapture); every time, its lists as written (pagWrote). SettlePAG
// then refunds the touched nodes' old edges and charges their final
// ones, each edge once, under one pagMu write lock. The owner settles at
// the end of each mutation; File.PAG and NumNodes settle first too, for
// code that drives a File directly. Build and open fill the summary in
// one pass instead (FillPAG, fillPAGFromPages).
//
// Who reads it: the CRR/WCRR gauges, the query planner and the
// background reorganizer, through PAGView under pagMu's read side — so a
// pinned reader sees whole mutations only.
//
// Access weights are not stored in records. A build takes them from the
// network; every edge added later, or read back from disk at open,
// weighs 1.

// PageCount is one PAG neighbor of a page with the number of network
// edges crossing between the two.
type PageCount struct {
	Page  storage.PageID
	Edges int
}

// pagPage tallies the edges with an endpoint on one page: all of them,
// those whose other endpoint is elsewhere, and the latter by page.
type pagPage struct {
	incident, split int
	nbrs            map[storage.PageID]int
}

// pagEdge names one directed edge.
type pagEdge struct{ from, to graph.NodeID }

type pagSummary struct {
	pages   map[storage.PageID]*pagPage
	records int
	// Running sums behind CRR = unsplit/edges and WCRR = wunsplit/wedges.
	edges, unsplit   int64
	wedges, wunsplit float64
	// weights holds the access weight of every edge that does not weigh 1.
	weights map[pagEdge]float32
}

func newPAGSummary() pagSummary {
	return pagSummary{pages: make(map[storage.PageID]*pagPage), weights: make(map[pagEdge]float32)}
}

func (s *pagSummary) weight(e pagEdge) float32 {
	if w, ok := s.weights[e]; ok {
		return w
	}
	return 1
}

// charge counts edge e, whose ends are on pages pf and pt, at weight w:
// how a fill takes each edge in.
func (s *pagSummary) charge(e pagEdge, pf, pt storage.PageID, w float32) {
	if w != 1 {
		s.weights[e] = w
	}
	s.tally(pf, pt, w, +1)
}

// tally charges (sign +1) or refunds (sign -1) one edge of weight w whose
// endpoints live on pages pf and pt.
func (s *pagSummary) tally(pf, pt storage.PageID, w float32, sign int) {
	s.edges += int64(sign)
	s.wedges += float64(sign) * float64(w)
	if pf == pt {
		s.unsplit += int64(sign)
		s.wunsplit += float64(sign) * float64(w)
		s.tallyPage(pf, pt, sign)
		return
	}
	s.tallyPage(pf, pt, sign)
	s.tallyPage(pt, pf, sign)
}

func (s *pagSummary) tallyPage(pid, other storage.PageID, sign int) {
	p := s.pages[pid]
	if p == nil {
		p = &pagPage{nbrs: make(map[storage.PageID]int)}
		s.pages[pid] = p
	}
	p.incident += sign
	if other != pid {
		p.split += sign
		if p.nbrs[other] += sign; p.nbrs[other] == 0 {
			delete(p.nbrs, other)
		}
	}
	if p.incident == 0 {
		delete(s.pages, pid)
	}
}

// livePage resolves a node at the overlay's live end — pending batch
// included — for the writer's tallies.
func (f *File) livePage(id graph.NodeID) storage.PageID {
	if r, ok := f.overlay.Load().lookup(id, buffer.LiveLSN); ok {
		return f.ridPage(r)
	}
	return storage.InvalidPageID
}

// pagLists locates a record's successor ids and then its predecessor
// ids in pagPending.ids.
type pagLists struct{ off, succs, preds int32 }

// pagTouched is one node of the mutation in progress: whether it was
// stored when the mutation first touched it, on which page and with
// which lists (as the summary counts it), and whether, where and with
// which lists it is stored now.
type pagTouched struct {
	id          graph.NodeID
	was, is     bool
	wasOn, isOn storage.PageID
	old, now    pagLists
}

// pagPending is the mutation in progress. Only the serialized writer
// touches it, so it takes no lock; its storage is reused from one
// mutation to the next.
type pagPending struct {
	nodes []pagTouched
	index map[graph.NodeID]int // into nodes
	ids   []graph.NodeID
}

func (m *pagPending) touched(id graph.NodeID) (*pagTouched, bool) {
	if i, ok := m.index[id]; ok {
		return &m.nodes[i], true
	}
	return nil, false
}

func (m *pagPending) keep(v recordView) pagLists {
	l := pagLists{off: int32(len(m.ids)), succs: int32(v.numSuccs()), preds: int32(v.numPreds())}
	for i := 0; i < int(l.succs); i++ {
		m.ids = append(m.ids, v.succ(i).To)
	}
	for i := 0; i < int(l.preds); i++ {
		m.ids = append(m.ids, v.pred(i))
	}
	return l
}

func (m *pagPending) succs(l pagLists) []graph.NodeID { return m.ids[l.off : l.off+l.succs] }
func (m *pagPending) preds(l pagLists) []graph.NodeID {
	return m.ids[l.off+l.succs : l.off+l.succs+l.preds]
}

func (m *pagPending) reset() {
	clear(m.index)
	m.nodes, m.ids = m.nodes[:0], m.ids[:0]
}

// pagCapture notes that a write primitive is about to overwrite, remove
// or store node id's record; old is the record as stored on page pid
// (nil: the node is on no page). Only a mutation's first touch is kept:
// that is the node as the summary counts it.
func (f *File) pagCapture(id graph.NodeID, pid storage.PageID, old []byte) {
	m := &f.pend
	if _, seen := m.index[id]; seen {
		return
	}
	t := pagTouched{id: id, wasOn: storage.InvalidPageID}
	if old != nil {
		if v, err := viewRecord(old); err == nil {
			t.was, t.wasOn, t.old = true, pid, m.keep(v)
		}
	}
	t.is, t.isOn, t.now = t.was, t.wasOn, t.old // until a write says otherwise
	m.index[id] = len(m.nodes)
	m.nodes = append(m.nodes, t)
}

// pagWrote notes node id's record as a write primitive has just left it:
// enc is the image stored on page pid (nil: removed). The node has been
// captured.
func (f *File) pagWrote(id graph.NodeID, pid storage.PageID, enc []byte) {
	m := &f.pend
	t, _ := m.touched(id)
	t.is = false
	if enc != nil {
		if v, err := viewRecord(enc); err == nil {
			t.is, t.isOn, t.now = true, pid, m.keep(v)
		}
	}
}

// SettlePAG takes the mutation in progress into the summary and returns
// how many nodes it touched. Call it where the mutation is whole — every
// stored record's lists agree — and only from the writer: under one
// write lock it refunds the edges of every touched node as the summary
// counted them and charges them as they are now, each edge once (an
// edge between two touched nodes is settled by its tail, one with an
// untouched end by its touched one). An edge that went away takes its
// access weight with it.
func (f *File) SettlePAG() int {
	m := &f.pend
	n := len(m.nodes)
	if n == 0 {
		return 0
	}
	f.pagMu.Lock()
	s := &f.pag
	for _, t := range m.nodes {
		// A node that stays on its page leaves its edges to untouched
		// nodes as they are counted, as long as it keeps them.
		stays := t.was && t.is && t.isOn == t.wasOn
		if t.was {
			s.records--
			f.tallyEdges(t.id, t.wasOn, t.old, t.now, stays, -1)
			for _, to := range m.succs(t.old) {
				if !t.is || !slices.Contains(m.succs(t.now), to) {
					delete(s.weights, pagEdge{t.id, to})
				}
			}
		}
		if t.is {
			s.records++
			f.tallyEdges(t.id, t.isOn, t.now, t.old, stays, +1)
		}
	}
	f.pagMu.Unlock()
	m.reset()
	return n
}

// tallyEdges refunds (sign -1) or charges (+1) touched node id's edges
// as lists l on page pid gives them: every successor edge, and every
// predecessor edge whose tail is untouched (a touched tail settles its
// own). With stays, an edge to an untouched node that the other lists
// hold too is left alone. Caller holds pagMu.
func (f *File) tallyEdges(id graph.NodeID, pid storage.PageID, l, other pagLists, stays bool, sign int) {
	m, s := &f.pend, &f.pag
	for _, to := range m.succs(l) {
		w := s.weight(pagEdge{id, to})
		if u, touched := m.touched(to); touched {
			far := u.isOn
			if sign < 0 {
				far = u.wasOn
			}
			s.tally(pid, far, w, sign)
		} else if !stays || !slices.Contains(m.succs(other), to) {
			s.tally(pid, f.livePage(to), w, sign)
		}
	}
	for _, from := range m.preds(l) {
		if _, touched := m.index[from]; touched || stays && slices.Contains(m.preds(other), from) {
			continue
		}
		s.tally(f.livePage(from), pid, s.weight(pagEdge{from, id}), sign)
	}
}

// installPAG makes s the summary and forgets the mutation in progress.
func (f *File) installPAG(s pagSummary) {
	f.pagMu.Lock()
	f.pag = s
	f.pagMu.Unlock()
	f.pend.reset()
}

// FillPAG replaces the summary with one taken from g and the placement:
// every edge of g whose tail is stored, on the pages its ends are on,
// at g's access weight. Nothing is read. An access method's Build calls
// it once its records are in (BulkLoad does it itself); whatever the
// build's writes had noted is dropped, so a build never settles. The
// caller serializes it against mutations.
func (f *File) FillPAG(g *graph.Network) {
	s := newPAGSummary()
	for _, id := range g.NodeIDs() {
		pf := f.livePage(id)
		if pf == storage.InvalidPageID {
			continue
		}
		s.records++
		for _, e := range g.SuccessorEdges(id) {
			s.charge(pagEdge{id, e.To}, pf, f.livePage(e.To), float32(e.Weight))
		}
	}
	f.installPAG(s)
}

// fillPAGFromPages replaces the summary with one taken from the page
// images open has just installed, every record read in place; every
// edge weighs 1.
func (f *File) fillPAGFromPages(pages []loadedPage) {
	s := newPAGSummary()
	for _, pg := range pages {
		sp, _ := storage.ViewSlottedPage(pg.img) // install has walked every image
		eachRecord(&sp, func(_ int, v recordView) error {
			s.records++
			for i, n := 0, v.numSuccs(); i < n; i++ {
				to := v.succ(i).To
				s.charge(pagEdge{v.id(), to}, pg.pid, f.livePage(to), 1)
			}
			return nil
		})
	}
	f.installPAG(s)
}

// rankedNeighbors returns the PAG neighbors of pid, most crossing edges
// first and lower page id first among equals. Caller holds pagMu.
func (s *pagSummary) rankedNeighbors(pid storage.PageID) []PageCount {
	p := s.pages[pid]
	if p == nil {
		return nil
	}
	out := make([]PageCount, 0, len(p.nbrs))
	for q, c := range p.nbrs {
		out = append(out, PageCount{Page: q, Edges: c})
	}
	slices.SortFunc(out, byEdgesThenPage)
	return out
}

// byEdgesThenPage orders most crossing edges first, then lower page id.
func byEdgesThenPage(a, b PageCount) int {
	if a.Edges != b.Edges {
		return cmp.Compare(b.Edges, a.Edges)
	}
	return cmp.Compare(a.Page, b.Page)
}

// PAGView is a read-only window on the summary. Tallies and sums are
// the summary's as of the last settle; PageOf answers as of the view's
// LSN. The view of a File settles the mutation in progress first and,
// like File's own operations, must be serialized against mutations by
// the owner; the view of a pinned View may be used beside them.
type PAGView struct {
	f   *File
	lsn uint64
}

// PAG settles the mutation in progress (see SettlePAG) and returns the
// summary as the live file sees it.
func (f *File) PAG() PAGView {
	f.SettlePAG()
	return PAGView{f: f, lsn: buffer.LiveLSN}
}

// PAG returns the summary with placements as of the view's LSN.
func (v View) PAG() PAGView { return PAGView{f: v.f, lsn: v.pin.LSN} }

// PageOf returns the data page of node id, and whether it is stored.
func (p PAGView) PageOf(id graph.NodeID) (storage.PageID, bool) {
	r, ok := p.f.overlay.Load().lookup(id, p.lsn)
	if !ok {
		return storage.InvalidPageID, false
	}
	return p.f.ridPage(r), true
}

// PAGStats are the summary's running sums and the file's shape: what
// α, γ, |A|, λ, CRR and WCRR are computed from.
type PAGStats struct {
	Nodes, Pages     int
	Edges, Unsplit   int64
	WEdges, WUnsplit float64
}

// CRR is the connectivity residue ratio (0 for an edgeless file).
func (st PAGStats) CRR() float64 {
	if st.Edges == 0 {
		return 0
	}
	return float64(st.Unsplit) / float64(st.Edges)
}

// WCRR is the weighted connectivity residue ratio (0 without weight).
func (st PAGStats) WCRR() float64 {
	if st.WEdges == 0 {
		return 0
	}
	return st.WUnsplit / st.WEdges
}

// Stats returns the current sums.
func (p PAGView) Stats() PAGStats {
	p.f.pagMu.RLock()
	defer p.f.pagMu.RUnlock()
	s := &p.f.pag
	return PAGStats{
		Nodes: s.records, Pages: p.f.NumPages(),
		Edges: s.edges, Unsplit: s.unsplit,
		WEdges: s.wedges, WUnsplit: s.wunsplit,
	}
}

// Neighbors returns the PAG neighbors of pid (paper Definition 1) with
// their crossing-edge counts, most connected first.
func (p PAGView) Neighbors(pid storage.PageID) []PageCount {
	p.f.pagMu.RLock()
	defer p.f.pagMu.RUnlock()
	return p.f.pag.rankedNeighbors(pid)
}

// WorstPages returns up to n pages ranked by split edges, worst first;
// pages without a split edge are never returned.
func (p PAGView) WorstPages(n int) []storage.PageID {
	p.f.pagMu.RLock()
	cands := make([]PageCount, 0, len(p.f.pag.pages))
	for pid, pg := range p.f.pag.pages {
		if pg.split > 0 {
			cands = append(cands, PageCount{Page: pid, Edges: pg.split})
		}
	}
	p.f.pagMu.RUnlock()
	slices.SortFunc(cands, byEdgesThenPage)
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]storage.PageID, len(cands))
	for i, c := range cands {
		out[i] = c.Page
	}
	return out
}
