package main

import (
	"bytes"
	"math"
	"sort"
	"sync"
	"sync/atomic"

	"ccam"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// reference is the oracle every answer is checked against: the
// fixture's graph.Network turned into expected records, plus — for
// workloads with a writer — the history of every record the writer
// has touched, by batch sequence number.
//
// A reader cannot know which committed batch its query pinned, but it
// can bracket it: it loads the acknowledged sequence before (c0) and
// after (c1) the call, and the answer must equal the reference at some
// sequence in [c0, c1+1] (+1 because the store may show a batch that
// is committed in memory a moment before its fsync acknowledges it).
// The writer records a batch's effect here before it calls Apply.
type reference struct {
	mu sync.RWMutex
	// mutable is set once a writer exists; read-only runs skip locking.
	mutable bool
	// base holds the fixture's records by node id (nil: no such node).
	base []*netfile.Record
	// hist holds, per touched node, its versions in sequence order. A
	// nil rec means the node does not exist from that sequence on.
	hist map[ccam.NodeID][]version
	// extra lists the nodes the writer inserted, for window queries.
	extra []extraNode
	// committed is the sequence of the last acknowledged batch.
	committed atomic.Uint64
	nodes     int // live node count at the newest sequence
	grid      grid
}

type version struct {
	seq uint64
	rec *netfile.Record
}

type extraNode struct {
	id         ccam.NodeID
	pos        ccam.Point
	born, died uint64 // alive for born <= seq < died; died 0: alive
}

// grid buckets the fixture's node positions so the window oracle does
// not scan every node; it is still a plain Contains filter over
// positions taken from the graph.Network, independent of any index in
// the store.
type grid struct {
	min   ccam.Point
	cell  float64
	cols  int
	rows  int
	cells [][]ccam.NodeID
}

func newReference(g *graph.Network) (*reference, error) {
	ids := g.NodeIDs()
	r := &reference{
		base:  make([]*netfile.Record, int(ids[len(ids)-1])+1),
		hist:  make(map[ccam.NodeID][]version),
		nodes: len(ids),
	}
	for _, id := range ids {
		rec, err := netfile.RecordFromNode(g, id)
		if err != nil {
			return nil, err
		}
		r.base[id] = rec
	}
	b := g.Bounds()
	cell := math.Sqrt(b.Width() * b.Height() / float64(len(ids)) * 16)
	r.grid = grid{min: b.Min, cell: cell,
		cols: int(b.Width()/cell) + 1, rows: int(b.Height()/cell) + 1}
	r.grid.cells = make([][]ccam.NodeID, r.grid.cols*r.grid.rows)
	for _, id := range ids {
		c := r.grid.cellOf(r.base[id].Pos)
		r.grid.cells[c] = append(r.grid.cells[c], id)
	}
	return r, nil
}

func (g *grid) clamp(v, n int) int {
	if v < 0 {
		return 0
	}
	if v >= n {
		return n - 1
	}
	return v
}

func (g *grid) cellOf(p ccam.Point) int {
	c := g.clamp(int((p.X-g.min.X)/g.cell), g.cols)
	r := g.clamp(int((p.Y-g.min.Y)/g.cell), g.rows)
	return r*g.cols + c
}

func (r *reference) rlock() {
	if r.mutable {
		r.mu.RLock()
	}
}

func (r *reference) runlock() {
	if r.mutable {
		r.mu.RUnlock()
	}
}

// at returns the record of id as of seq (nil: absent). Callers hold
// the read lock.
func (r *reference) at(id ccam.NodeID, seq uint64) *netfile.Record {
	if vs := r.hist[id]; len(vs) > 0 {
		for i := len(vs) - 1; i >= 0; i-- {
			if vs[i].seq <= seq {
				return vs[i].rec
			}
		}
	}
	if int(id) < len(r.base) {
		return r.base[id]
	}
	return nil
}

// basePos returns the fixture position of a base node.
func (r *reference) basePos(id ccam.NodeID) ccam.Point { return r.base[id].Pos }

// encodedBytes sums the encoded size of every live record at the
// newest sequence: the "user data" of space_amp.
func (r *reference) encodedBytes() int64 {
	r.rlock()
	defer r.runlock()
	var total int64
	for id, rec := range r.base {
		if len(r.hist[ccam.NodeID(id)]) == 0 && rec != nil {
			total += int64(rec.EncodedSize())
		}
	}
	for _, vs := range r.hist {
		if rec := vs[len(vs)-1].rec; rec != nil {
			total += int64(rec.EncodedSize())
		}
	}
	return total
}

// network rebuilds a graph.Network from the newest records, to
// measure CRR after writes.
func (r *reference) network() (*graph.Network, error) {
	r.rlock()
	defer r.runlock()
	const newest = math.MaxUint64
	var recs []*netfile.Record
	for id := range r.base {
		if rec := r.at(ccam.NodeID(id), newest); rec != nil {
			recs = append(recs, rec)
		}
	}
	for id := range r.hist {
		if int(id) >= len(r.base) {
			if rec := r.at(id, newest); rec != nil {
				recs = append(recs, rec)
			}
		}
	}
	g := graph.NewNetwork()
	for _, rec := range recs {
		if err := g.AddNode(graph.Node{ID: rec.ID, Pos: rec.Pos, Attrs: rec.Attrs}); err != nil {
			return nil, err
		}
	}
	for _, rec := range recs {
		for _, s := range rec.Succs {
			if err := g.AddEdge(graph.Edge{From: rec.ID, To: s.To, Cost: float64(s.Cost), Weight: 1}); err != nil {
				return nil, err
			}
		}
	}
	return g, nil
}

// result is what one op returned, in-process or decoded off the wire.
type result struct {
	rec  *ccam.Record
	recs []*ccam.Record
	agg  ccam.RouteAggregate
	qr   *ccam.Result
}

// check reports whether res is a right answer to o at some sequence
// in [c0, c1+1].
func (r *reference) check(m *mix, o *op, res *result, c0, c1 uint64) bool {
	r.rlock()
	defer r.runlock()
	for seq := c0; seq <= c1+1; seq++ {
		if r.checkAt(m, o, res, seq) {
			return true
		}
	}
	return false
}

func (r *reference) checkAt(m *mix, o *op, res *result, seq uint64) bool {
	switch o.kind {
	case opFind:
		return recEqual(res.rec, r.at(o.id, seq))
	case opSucc:
		want := r.at(o.id, seq)
		if want == nil || len(res.recs) != len(want.Succs) {
			return false
		}
		ids := make([]ccam.NodeID, len(want.Succs))
		for i, s := range want.Succs {
			ids[i] = s.To
		}
		return r.recsEqual(res.recs, ids, seq)
	case opRoute:
		want, ok := r.routeAt(m.routes[o.route], seq)
		return ok && aggEqual(res.agg, want)
	case opRange:
		return r.recsEqual(res.recs, r.window(o.rect, seq), seq)
	case opQuery:
		return r.neighborsEqual(res.qr, o.id, 2, seq)
	}
	return false
}

// recsEqual reports whether got holds exactly the records of ids as
// of seq, in any order.
func (r *reference) recsEqual(got []*ccam.Record, ids []ccam.NodeID, seq uint64) bool {
	if len(got) != len(ids) {
		return false
	}
	if len(got) > 1 {
		got = append([]*ccam.Record(nil), got...)
		sort.Slice(got, func(i, j int) bool { return got[i].ID < got[j].ID })
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	}
	for i, rec := range got {
		if rec == nil || rec.ID != ids[i] || !recEqual(rec, r.at(ids[i], seq)) {
			return false
		}
	}
	return true
}

// routeAt sums the route's edge costs the way the paper defines the
// aggregate: per hop, the successor entry's cost.
func (r *reference) routeAt(route ccam.Route, seq uint64) (ccam.RouteAggregate, bool) {
	agg := ccam.RouteAggregate{Nodes: 1}
	for i := 1; i < len(route); i++ {
		rec := r.at(route[i-1], seq)
		if rec == nil {
			return agg, false
		}
		found := false
		var cost float64
		for _, s := range rec.Succs {
			if s.To == route[i] {
				cost, found = float64(s.Cost), true
				break
			}
		}
		if !found {
			return agg, false
		}
		agg.Nodes++
		agg.TotalCost += cost
		if i == 1 || cost < agg.MinCost {
			agg.MinCost = cost
		}
		if cost > agg.MaxCost {
			agg.MaxCost = cost
		}
	}
	return agg, true
}

// window returns the ids whose position lies inside rect as of seq.
func (r *reference) window(rect ccam.Rect, seq uint64) []ccam.NodeID {
	g := &r.grid
	c0 := g.clamp(int((rect.Min.X-g.min.X)/g.cell), g.cols)
	c1 := g.clamp(int((rect.Max.X-g.min.X)/g.cell), g.cols)
	r0 := g.clamp(int((rect.Min.Y-g.min.Y)/g.cell), g.rows)
	r1 := g.clamp(int((rect.Max.Y-g.min.Y)/g.cell), g.rows)
	var out []ccam.NodeID
	for row := r0; row <= r1; row++ {
		for col := c0; col <= c1; col++ {
			for _, id := range g.cells[row*g.cols+col] {
				if rect.Contains(r.base[id].Pos) {
					out = append(out, id)
				}
			}
		}
	}
	for _, e := range r.extra {
		if e.born <= seq && (e.died == 0 || seq < e.died) && rect.Contains(e.pos) {
			out = append(out, e.id)
		}
	}
	return out
}

// neighborsEqual checks a "NEIGHBORS id DEPTH depth" result against a
// breadth-first walk of the reference's successor lists.
func (r *reference) neighborsEqual(qr *ccam.Result, id ccam.NodeID, depth int, seq uint64) bool {
	if qr == nil {
		return false
	}
	start := r.at(id, seq)
	if start == nil {
		return false
	}
	seen := map[ccam.NodeID]*netfile.Record{id: start}
	frontier := []*netfile.Record{start}
	for d := 0; d < depth; d++ {
		var next []*netfile.Record
		for _, u := range frontier {
			for _, s := range u.Succs {
				if _, ok := seen[s.To]; ok {
					continue
				}
				rec := r.at(s.To, seq)
				if rec == nil {
					return false
				}
				seen[s.To] = rec
				next = append(next, rec)
			}
		}
		frontier = next
	}
	if qr.Count != len(seen) || len(qr.Nodes) != len(seen) {
		return false
	}
	for _, row := range qr.Nodes {
		rec, ok := seen[row.ID]
		if !ok || row.X != rec.Pos.X || row.Y != rec.Pos.Y || row.Succs != len(rec.Succs) {
			return false
		}
		delete(seen, row.ID)
	}
	return len(seen) == 0
}

func aggEqual(a, b ccam.RouteAggregate) bool {
	return a.Nodes == b.Nodes && floatEqual(a.TotalCost, b.TotalCost) &&
		floatEqual(a.MinCost, b.MinCost) && floatEqual(a.MaxCost, b.MaxCost)
}

func floatEqual(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

// recEqual compares a returned record with the expected one. List
// order is not part of the contract after updates, so lists that
// differ in order are compared as sets.
func recEqual(got, want *netfile.Record) bool {
	if got == nil || want == nil {
		return false
	}
	if got.ID != want.ID || got.Pos != want.Pos || !bytes.Equal(got.Attrs, want.Attrs) ||
		len(got.Succs) != len(want.Succs) || len(got.Preds) != len(want.Preds) {
		return false
	}
	return succsEqual(got.Succs, want.Succs) && predsEqual(got.Preds, want.Preds)
}

func succsEqual(a, b []netfile.SuccEntry) bool {
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		return true
	}
	a = append([]netfile.SuccEntry(nil), a...)
	b = append([]netfile.SuccEntry(nil), b...)
	less := func(s []netfile.SuccEntry) func(i, j int) bool {
		return func(i, j int) bool { return s[i].To < s[j].To }
	}
	sort.Slice(a, less(a))
	sort.Slice(b, less(b))
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func predsEqual(a, b []ccam.NodeID) bool {
	same := true
	for i := range a {
		if a[i] != b[i] {
			same = false
			break
		}
	}
	if same {
		return true
	}
	a = append([]ccam.NodeID(nil), a...)
	b = append([]ccam.NodeID(nil), b...)
	sort.Slice(a, func(i, j int) bool { return a[i] < a[j] })
	sort.Slice(b, func(i, j int) bool { return b[i] < b[j] })
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
