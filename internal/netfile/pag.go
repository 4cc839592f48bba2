package netfile

import (
	"slices"
	"sort"

	"ccam/internal/buffer"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// This file is the file's Page Access Graph summary: the one in-memory
// account of the facts the paper measures over the PAG (§2.4, §3) —
// which edges exist, what they cost and weigh, and how they fall
// across data pages. It is always on and always current.
//
// Who writes it: only this package, under pagMu's write side. Build
// and open fill it in the pass they make over every record anyway
// (pagFill); after that the record-write primitives keep it exact —
// notePlacement wherever a record lands on, moves between or leaves a
// page, UpdateRecord wherever a successor-list is rewritten in place.
// Who reads it: the CRR/WCRR gauges, the query planner and the
// background reorganizer, through PAGView under pagMu's read side. It
// keeps no node→page map of its own: the tallies are taken against the
// snapshot overlay (the writer at its live end, a planner at its pinned
// LSN).
//
// Access weights are not stored in records. Build takes them from the
// network (SetAccessWeights); every edge added later, or read back from
// disk at open, weighs 1.

// PAGEdge is one directed edge of the summary. Cost is the stored
// float32, so a planner that mirrors a search over these edges
// accumulates distances exactly like the executor.
type PAGEdge struct {
	To     graph.NodeID
	Cost   float32
	Weight float32
}

// PageCount is one PAG neighbor of a page with the number of network
// edges crossing between the two.
type PageCount struct {
	Page  storage.PageID
	Edges int
}

// pagNode is a node's adjacency: its successor-list in record order
// and, derived from the other records' successor-lists, the nodes with
// an edge to it. stored is false while the node is only the far end of
// some edge (a delete or move in progress, an incremental build that
// has not reached it yet).
type pagNode struct {
	succs  []PAGEdge
	preds  []graph.NodeID
	stored bool
}

// pagPage tallies the edges with an endpoint on one page: all of them,
// those whose other endpoint is elsewhere, and the latter by page.
type pagPage struct {
	incident, split int
	nbrs            map[storage.PageID]int
}

type pagSummary struct {
	nodes   map[graph.NodeID]*pagNode
	pages   map[storage.PageID]*pagPage
	records int
	// Running sums behind CRR = unsplit/edges and WCRR = wunsplit/wedges.
	edges, unsplit   int64
	wedges, wunsplit float64
}

func newPAGSummary(nodes, pages int) pagSummary {
	return pagSummary{
		nodes: make(map[graph.NodeID]*pagNode, nodes),
		pages: make(map[storage.PageID]*pagPage, pages),
	}
}

func (s *pagSummary) node(id graph.NodeID) *pagNode {
	n := s.nodes[id]
	if n == nil {
		n = &pagNode{}
		s.nodes[id] = n
	}
	return n
}

// tally charges (sign +1) or refunds (sign -1) one edge whose
// endpoints live on pages pf and pt; InvalidPageID stands for an
// endpoint that is not stored, which leaves the edge split and paired
// with no page.
func (s *pagSummary) tally(pf, pt storage.PageID, w float32, sign int) {
	s.edges += int64(sign)
	s.wedges += float64(sign) * float64(w)
	same := pf != storage.InvalidPageID && pf == pt
	if same {
		s.unsplit += int64(sign)
		s.wunsplit += float64(sign) * float64(w)
	}
	if pf != storage.InvalidPageID {
		s.tallyPage(pf, pt, same, sign)
	}
	if pt != storage.InvalidPageID && !same {
		s.tallyPage(pt, pf, false, sign)
	}
}

func (s *pagSummary) tallyPage(pid, other storage.PageID, same bool, sign int) {
	p := s.pages[pid]
	if p == nil {
		p = &pagPage{nbrs: make(map[storage.PageID]int)}
		s.pages[pid] = p
	}
	p.incident += sign
	if !same {
		p.split += sign
		if other != storage.InvalidPageID {
			if p.nbrs[other] += sign; p.nbrs[other] == 0 {
				delete(p.nbrs, other)
			}
		}
	}
	if p.incident == 0 {
		delete(s.pages, pid)
	}
}

func (s *pagSummary) weight(from, to graph.NodeID) float32 {
	if n := s.nodes[from]; n != nil {
		for _, e := range n.succs {
			if e.To == to {
				return e.Weight
			}
		}
	}
	return 1
}

func (s *pagSummary) removePred(to, from graph.NodeID) {
	n := s.nodes[to]
	if n == nil {
		return
	}
	for i, p := range n.preds {
		if p == from {
			n.preds = append(n.preds[:i], n.preds[i+1:]...)
			break
		}
	}
	s.forgetIfUnused(to, n)
}

func (s *pagSummary) forgetIfUnused(id graph.NodeID, n *pagNode) {
	if !n.stored && len(n.succs) == 0 && len(n.preds) == 0 {
		delete(s.nodes, id)
	}
}

// livePage resolves a node at the overlay's live end — pending batch
// included — for the writer's tallies.
func (f *File) livePage(id graph.NodeID) storage.PageID {
	if pid, ok := f.overlay.Load().lookup(id, buffer.LiveLSN); ok {
		return pid
	}
	return storage.InvalidPageID
}

// pagMoveNode re-tallies every edge incident to node id as the node goes
// from page from to page to (which the overlay may not say yet, or any
// more): one resolution of the far end pays for the refund and the
// charge.
func (f *File) pagMoveNode(id graph.NodeID, n *pagNode, from, to storage.PageID) {
	for _, e := range n.succs {
		a, b := from, to // a self loop moves at both ends
		if e.To != id {
			a = f.livePage(e.To)
			b = a
		}
		f.pag.tally(from, a, e.Weight, -1)
		f.pag.tally(to, b, e.Weight, +1)
	}
	for _, p := range n.preds {
		if p != id { // a self loop was counted among the successors
			pp, w := f.livePage(p), f.pag.weight(p, id)
			f.pag.tally(pp, from, w, -1)
			f.pag.tally(pp, to, w, +1)
		}
	}
}

// pagPlace is the summary's one update rule: node rec.ID's record, on
// page old until now, is on page pid with successor-list rec.Succs
// (InvalidPageID: not stored, on either side). The edges that came or
// went with the list are charged or refunded on the page the record is
// stored on; a placement change moves every incident edge's tally from
// the old page to the new one. Edges that survive keep their access
// weight, new ones weigh 1.
func (f *File) pagPlace(rec *Record, old, pid storage.PageID) {
	f.pagMu.Lock()
	defer f.pagMu.Unlock()
	s := &f.pag
	id := rec.ID
	n := s.node(id)
	if old == storage.InvalidPageID {
		// An arriving record: seat what is already known of the node (the
		// edges that point at it), then take its list on its page.
		f.pagMoveNode(id, n, old, pid)
		n.stored = true
		s.records++
		old = pid
	}
	succs := rec.Succs
	if pid == storage.InvalidPageID {
		succs = nil
	}
	far := func(to graph.NodeID) storage.PageID {
		if to == id {
			return old
		}
		return f.livePage(to)
	}
	if slices.EqualFunc(n.succs, succs, func(e PAGEdge, sc SuccEntry) bool { return e.To == sc.To }) {
		for i := range succs {
			n.succs[i].Cost = succs[i].Cost
		}
	} else {
		next := make([]PAGEdge, len(succs))
		for i, sc := range succs {
			next[i] = PAGEdge{To: sc.To, Cost: sc.Cost, Weight: 1}
			kept := false
			for _, e := range n.succs {
				if e.To == sc.To {
					next[i].Weight, kept = e.Weight, true
					break
				}
			}
			if !kept {
				to := s.node(sc.To)
				to.preds = append(to.preds, id)
				s.tally(old, far(sc.To), 1, +1)
			}
		}
		for _, e := range n.succs {
			if !slices.ContainsFunc(succs, func(sc SuccEntry) bool { return sc.To == e.To }) {
				s.tally(old, far(e.To), e.Weight, -1)
				s.removePred(e.To, id)
			}
		}
		n.succs = next
	}
	if old != pid {
		f.pagMoveNode(id, n, old, pid)
		if pid == storage.InvalidPageID {
			n.stored = false
			s.records--
			s.forgetIfUnused(id, n)
		}
	}
}

// pagFill replaces the summary with one built from the records of
// every data page (nodes of them in all), resolving placements through
// the overlay install has just reset. Nothing is read.
func (f *File) pagFill(pages []loadedPage, nodes int) {
	s := newPAGSummary(nodes, len(pages))
	for _, pg := range pages {
		for _, r := range pg.recs {
			n := s.node(r.ID)
			n.stored = true
			s.records++
			n.succs = make([]PAGEdge, len(r.Succs))
			for i, sc := range r.Succs {
				n.succs[i] = PAGEdge{To: sc.To, Cost: sc.Cost, Weight: 1}
				to := s.node(sc.To)
				to.preds = append(to.preds, r.ID)
				s.tally(pg.pid, f.livePage(sc.To), 1, +1)
			}
		}
	}
	f.pagMu.Lock()
	f.pag = s
	f.pagMu.Unlock()
}

// SetAccessWeights gives every summarized edge that g has too g's
// access weight. An access method's Build calls it once its records
// are in; the caller serializes it against mutations.
func (f *File) SetAccessWeights(g *graph.Network) {
	f.pagMu.Lock()
	defer f.pagMu.Unlock()
	for id, n := range f.pag.nodes {
		pf := f.livePage(id)
		for i := range n.succs {
			e := &n.succs[i]
			ge, err := g.Edge(id, e.To)
			if err != nil || float32(ge.Weight) == e.Weight {
				continue
			}
			pt := f.livePage(e.To)
			f.pag.tally(pf, pt, e.Weight, -1)
			e.Weight = float32(ge.Weight)
			f.pag.tally(pf, pt, e.Weight, +1)
		}
	}
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
		i := len(out)
		out = append(out, PageCount{})
		for i > 0 && (out[i-1].Edges < c || out[i-1].Edges == c && out[i-1].Page > q) {
			out[i] = out[i-1]
			i--
		}
		out[i] = PageCount{Page: q, Edges: c}
	}
	return out
}

// PAGView is a read-only window on the summary. Adjacency, tallies and
// sums are the live ones; PageOf answers as of the view's LSN. The view
// of a File resolves at the live end and, like File's own operations,
// must be serialized against mutations by the owner; the view of a
// pinned View may be used beside them.
type PAGView struct {
	f   *File
	lsn uint64
}

// PAG returns the summary as the live file sees it.
func (f *File) PAG() PAGView { return PAGView{f: f, lsn: buffer.LiveLSN} }

// PAG returns the summary with placements as of the view's LSN.
func (v View) PAG() PAGView { return PAGView{f: v.f, lsn: v.lsn} }

// PageOf returns the data page of node id, and whether it is stored.
func (p PAGView) PageOf(id graph.NodeID) (storage.PageID, bool) {
	return p.f.overlay.Load().lookup(id, p.lsn)
}

// Succs appends node id's successor edges, in record order, to buf.
func (p PAGView) Succs(id graph.NodeID, buf []PAGEdge) []PAGEdge {
	p.f.pagMu.RLock()
	defer p.f.pagMu.RUnlock()
	if n := p.f.pag.nodes[id]; n != nil {
		buf = append(buf, n.succs...)
	}
	return buf
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
		Nodes: s.records, Pages: len(p.f.pages),
		Edges: s.edges, Unsplit: s.unsplit,
		WEdges: s.wedges, WUnsplit: s.wunsplit,
	}
}

// PageTally returns how many edges have an endpoint on pid and how many
// of those leave the page.
func (p PAGView) PageTally(pid storage.PageID) (incident, split int) {
	p.f.pagMu.RLock()
	defer p.f.pagMu.RUnlock()
	if pg := p.f.pag.pages[pid]; pg != nil {
		return pg.incident, pg.split
	}
	return 0, 0
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
	sort.Slice(cands, func(i, j int) bool {
		if cands[i].Edges != cands[j].Edges {
			return cands[i].Edges > cands[j].Edges
		}
		return cands[i].Page < cands[j].Page
	})
	if len(cands) > n {
		cands = cands[:n]
	}
	out := make([]storage.PageID, len(cands))
	for i, c := range cands {
		out[i] = c.Page
	}
	return out
}
