package netfile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sort"

	"ccam/internal/buffer"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// This file is the read path: every search operation of File and of
// View runs on one page cursor. The paper's Get-A-successor "searches
// the buffered page containing the current node first"; the cursor
// makes that literal. It resolves a node to its record id, borrows the
// record's page from the pool (buffer.PageRef) and reads the one slot
// the id names — and while the next node resolves to the page it already
// holds, it stays: no pool fetch, no latch, no copy. A hop therefore
// costs a pool fetch with probability 1-α, the paper's route model,
// instead of always. The cursor is also where a read is counted: each
// resolve is an index visit and each move a pool request, charged to
// the view's account (metrics.Account) as they happen.
//
// Borrow rules (see buffer.PageRef): the cursor holds at most one
// page, releases it before it fetches another, and never keeps it
// across a return to its caller or a call into caller-supplied code —
// operations decode what they hand out into records that own their
// memory, and release before returning.

// cursor is one operation's position in the file. It lives on the
// operation's stack and must be released on every path out.
type cursor struct {
	v  View
	st *overlayState // the node index; read as of v.pin.LSN
	// ref borrows page pid; sp is its slotted view, validated once per
	// visit. ref.Data == nil means no page is held.
	pid storage.PageID
	ref buffer.PageRef
	sp  storage.SlottedPage
}

func (v View) cursor() cursor {
	return cursor{v: v, st: v.f.overlay.Load()}
}

func (c *cursor) release() { c.ref.Release() }

// resolve maps a node to its record id through the node index as of
// the view's LSN: one index visit (the paper's index is memory
// resident, and so is this one: the visit costs no data-page I/O).
func (c *cursor) resolve(id graph.NodeID) (rid, error) {
	c.v.acct.IndexVisit()
	r, ok := c.st.lookup(id, c.v.pin.LSN)
	if !ok {
		return noRID, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return r, nil
}

// move makes pid the held page, releasing the previous one first.
func (c *cursor) move(pid storage.PageID) error {
	c.release()
	ref, err := c.v.f.pool.ReadAt(pid, c.v.pin.LSN, c.v.acct)
	if err != nil {
		return err
	}
	sp, err := storage.ViewSlottedPage(ref.Data)
	if err != nil {
		ref.Release()
		return err
	}
	c.pid, c.ref, c.sp = pid, ref, sp
	return nil
}

// seek positions the cursor on node id's record. The view aliases the
// held page: it is valid until the next seek, move or release.
func (c *cursor) seek(id graph.NodeID) (recordView, error) {
	r, err := c.resolve(id)
	if err != nil {
		return recordView{}, err
	}
	if pid := c.v.f.ridPage(r); c.ref.Data != nil && pid == c.pid {
		c.ref.Touch()
	} else if err := c.move(pid); err != nil {
		return recordView{}, err
	}
	return c.v.f.recordAt(&c.sp, r, id)
}

// recordAt reads node id's record from the slot of sp, a data page, that
// record id r names. The index sent the caller there, so a slot that
// does not hold the node live is corruption.
func (f *File) recordAt(sp *storage.SlottedPage, r rid, id graph.NodeID) (recordView, error) {
	if slot := f.ridSlot(r); slot < sp.NumSlots() {
		raw, live, err := sp.Record(slot)
		if err != nil {
			return recordView{}, err
		}
		if live {
			v, err := viewRecord(raw)
			if err != nil || v.id() == id {
				return v, err
			}
		}
	}
	return recordView{}, fmt.Errorf("netfile: node %d maps to page %d slot %d, which does not hold it: %w",
		id, f.ridPage(r), f.ridSlot(r), ErrCorruptRecord)
}

// eachRecord calls fn with the slot and a view of every live record of
// a data page, in slot order, and stops at the first error — a record
// that does not parse is one.
func eachRecord(sp *storage.SlottedPage, fn func(slot int, v recordView) error) error {
	for i, n := 0, sp.NumSlots(); i < n; i++ {
		raw, live, err := sp.Record(i)
		if err != nil {
			return err
		}
		if !live {
			continue
		}
		v, err := viewRecord(raw)
		if err != nil {
			return fmt.Errorf("slot %d: %w", i, err)
		}
		if err := fn(i, v); err != nil {
			return err
		}
	}
	return nil
}

// decodePage appends the decoded records of a data page to out.
func decodePage(sp *storage.SlottedPage, out []*Record) ([]*Record, error) {
	err := eachRecord(sp, func(_ int, v recordView) error {
		out = append(out, v.record())
		return nil
	})
	if err != nil {
		return nil, err
	}
	return out, nil
}

// read fetches one record: resolve, borrow, decode, release.
func (v View) read(id graph.NodeID) (*Record, error) {
	c := v.cursor()
	defer c.release()
	rv, err := c.seek(id)
	if err != nil {
		return nil, err
	}
	return rv.record(), nil
}

// FindCtx retrieves the record of node id as of the view. The context
// is checked before the fetch.
func (v View) FindCtx(ctx context.Context, id graph.NodeID) (*Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	return v.read(id)
}

// GetASuccessor retrieves the record of succ, a successor of cur
// (paper §2.3; cur may be nil to skip the check). The caller holds cur
// as a record, not as a position, so this is a Find of succ: "the
// buffered page containing cur is searched first" holds in the sense
// that a co-located successor is a pool hit. The literal form — stay
// on the page, fetch nothing — is what GetSuccessors and EvaluateRoute
// do between their own hops.
func (v View) GetASuccessor(cur *Record, succ graph.NodeID) (*Record, error) {
	if cur != nil && !cur.HasSucc(succ) {
		return nil, fmt.Errorf("%w: %d of %d", ErrNotSuccessor, succ, cur.ID)
	}
	return v.read(succ)
}

// GetSuccessorsCtx retrieves the records of all successors of node id
// as of the view, in successor-list order, seeking each in that order.
// The context is checked before the node's own fetch and before each
// successor's. The records returned share one allocation.
func (v View) GetSuccessorsCtx(ctx context.Context, id graph.NodeID) ([]*Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := v.cursor()
	defer c.release()
	rv, err := c.seek(id)
	if err != nil {
		return nil, err
	}
	// The successor ids are copied out: the first seek that leaves the
	// page invalidates rv.
	var buf [2 * inlineSuccs]graph.NodeID
	succs := buf[:0]
	for i, n := 0, rv.numSuccs(); i < n; i++ {
		succs = append(succs, rv.succ(i).To)
	}
	slab := make([]inlineRecord, len(succs))
	out := make([]*Record, len(succs))
	for i, to := range succs {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		sv, err := c.seek(to)
		if err != nil {
			return nil, fmt.Errorf("netfile: get-successors of %d: %w", id, err)
		}
		out[i] = sv.recordIn(&slab[i])
	}
	return out, nil
}

// EvaluateRouteCtx computes the aggregate property of a route as of
// the view (paper §2.3, "Route Evaluation"): a Find of the first node,
// then one Get-A-successor per hop, the cost of each hop read from the
// successor-list of the record the cursor stands on. The context is
// checked before each hop's fetch.
func (v View) EvaluateRouteCtx(ctx context.Context, route graph.Route) (RouteAggregate, error) {
	if len(route) == 0 {
		return RouteAggregate{}, fmt.Errorf("%w: empty route", graph.ErrInvalidRoute)
	}
	if err := ctx.Err(); err != nil {
		return RouteAggregate{}, err
	}
	c := v.cursor()
	defer c.release()
	rv, err := c.seek(route[0])
	if err != nil {
		return RouteAggregate{}, err
	}
	agg := RouteAggregate{Nodes: 1}
	for _, next := range route[1:] {
		c32, ok := rv.succCost(next)
		if !ok {
			return RouteAggregate{}, fmt.Errorf("%w: hop %d->%d is not an edge", graph.ErrInvalidRoute, rv.id(), next)
		}
		if err := ctx.Err(); err != nil {
			return RouteAggregate{}, err
		}
		if rv, err = c.seek(next); err != nil {
			return RouteAggregate{}, err
		}
		cost := float64(c32)
		agg.Nodes++
		agg.TotalCost += cost
		if agg.Nodes == 2 || cost < agg.MinCost {
			agg.MinCost = cost
		}
		if cost > agg.MaxCost {
			agg.MaxCost = cost
		}
	}
	return agg, nil
}

// readSet reads the records of ids as one set and returns those keep
// accepts (nil keeps all), in the order of ids; an id listed twice is
// read twice. Every id is resolved once, up front, and the reads then
// go in record-id order: each distinct page is borrowed once, however
// the ids alternate between pages. With skipMissing
// an id the view does not hold is left out instead of failing the
// read. The context is checked before each page's fetch. keep runs
// with the page held and must look at nothing but the view. The
// records returned share one allocation.
func (c *cursor) readSet(ctx context.Context, ids []graph.NodeID, skipMissing bool, keep func(recordView) bool) ([]*Record, error) {
	// A key is the record id in the high half and the position in ids in
	// the low: sorted, the keys group by page, since the page is a record
	// id's high bits.
	var buf [64]uint64
	keys := buf[:0]
	for i, id := range ids {
		r, err := c.resolve(id)
		if skipMissing && errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		keys = append(keys, uint64(r)<<32|uint64(i))
	}
	if len(keys) == 0 {
		return nil, nil
	}
	slices.Sort(keys)
	slab := make([]inlineRecord, len(keys))
	out := make([]*Record, len(ids))
	f := c.v.f
	for k := 0; k < len(keys); {
		pid := f.ridPage(rid(keys[k] >> 32))
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if err := c.move(pid); err != nil {
			return nil, err
		}
		for ; k < len(keys) && f.ridPage(rid(keys[k]>>32)) == pid; k++ {
			i := uint32(keys[k])
			rv, err := f.recordAt(&c.sp, rid(keys[k]>>32), ids[i])
			if err != nil {
				return nil, err
			}
			if keep == nil || keep(rv) {
				out[i] = rv.recordIn(&slab[k])
			}
		}
	}
	n := 0
	for _, r := range out {
		if r != nil {
			out[n] = r
			n++
		}
	}
	if n == 0 {
		return nil, nil
	}
	return out[:n], nil
}

// FindSetCtx retrieves the records of ids as of the view, in the order
// of ids, as one set read: each distinct page is fetched once. An id
// the view does not hold fails the read with ErrNotFound: the first such
// id in ids, since every id resolves before any page is read. The context
// is checked before each page's fetch. The records returned share one
// allocation.
func (v View) FindSetCtx(ctx context.Context, ids []graph.NodeID) ([]*Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	c := v.cursor()
	defer c.release()
	return c.readSet(ctx, ids, false, nil)
}

// RangeQueryCtx returns the records of every node whose position lies
// in rect as of the view, in the order the spatial index yields them.
// Candidates come from the live spatial index unioned with the spatial
// entries removed by batches committed after the view's LSN; each
// candidate is then resolved at that LSN, so nodes inserted after it
// drop out and nodes deleted after it reappear. The candidates are read
// as one set: the spatial index hands out neighbors in space together,
// which a clustered file keeps on few pages, and each of those pages is
// fetched once. The context is checked before each page's fetch. The
// records returned share one allocation.
func (v View) RangeQueryCtx(ctx context.Context, rect geom.Rect) ([]*Record, error) {
	c := v.cursor()
	defer c.release()
	var buf [64]graph.NodeID
	v.f.spatMu.RLock()
	// A delete drops its spatial entry and installs its batch's overlay
	// delta under the write side of this lock: the index and a delta list
	// loaded under the read side agree.
	c.st = v.f.overlay.Load()
	cand := buf[:0]
	v.f.spatial.search(rect, func(id graph.NodeID) bool {
		cand = append(cand, id)
		return true
	})
	indexed := len(cand)
	// No delta is newer than the live end: the live file adds nothing.
	for _, d := range c.st.deltas {
		if d.lsn.Load() <= v.pin.LSN {
			continue
		}
		for _, e := range d.removed {
			if rect.Contains(e.pos) {
				cand = append(cand, e.id)
			}
		}
	}
	v.f.spatMu.RUnlock()
	// The index yields each id once; only resurrected entries can
	// repeat one (deleted, re-inserted and deleted again after the LSN).
	if len(cand) > indexed {
		seen := make(map[graph.NodeID]bool, len(cand))
		n := 0
		for _, id := range cand {
			if !seen[id] {
				seen[id] = true
				cand[n] = id
				n++
			}
		}
		cand = cand[:n]
	}
	// A pinned view skips the nodes inserted after its LSN.
	return c.readSet(ctx, cand, v.pin.LSN != buffer.LiveLSN, func(rv recordView) bool {
		return rect.Contains(rv.pos())
	})
}

// Nearest returns the k records closest to p by Euclidean distance as
// of the view, nearest first. It runs expanding-window range queries —
// exact at the view's LSN — and verifies the result radius: a window of
// half-side r holds every point within r of p, so k hits whose farthest
// lies within r are the answer, and otherwise one more query at that
// farthest distance is. The context is checked before each page's
// fetch.
func (v View) Nearest(ctx context.Context, p geom.Point, k int) ([]*Record, error) {
	if k <= 0 {
		return nil, nil
	}
	b := v.f.quant.Bounds()
	r := (b.Width() + b.Height()) / 128
	if r <= 0 {
		r = 1
	}
	for {
		window := geom.NewRect(geom.Point{X: p.X - r, Y: p.Y - r}, geom.Point{X: p.X + r, Y: p.Y + r})
		recs, err := v.RangeQueryCtx(ctx, window)
		if err != nil {
			return nil, err
		}
		// A window spanning the map has seen every record there is.
		covers := window.Contains(b.Min) && window.Contains(b.Max)
		if len(recs) < k && !covers {
			r *= 2
			continue
		}
		sortByDistance(recs, p)
		if len(recs) > k {
			recs = recs[:k]
		}
		if covers || len(recs) == 0 {
			return recs, nil
		}
		worst := recs[len(recs)-1]
		if d := math.Hypot(worst.Pos.X-p.X, worst.Pos.Y-p.Y); d > r {
			r = d // every point within d now lies inside the window
			continue
		}
		return recs, nil
	}
}

// EvaluateRouteUnit retrieves every node record of the route-unit as
// of the view and aggregates its member edges' costs. Members are
// directed edges (from, to); each must exist. Connectivity clustering
// makes this cheap because a route-unit's nodes form connected chains.
// The context is checked before each record's fetch.
func (v View) EvaluateRouteUnit(ctx context.Context, name string, members [][2]graph.NodeID) (RouteUnitAggregate, error) {
	if len(members) == 0 {
		return RouteUnitAggregate{}, fmt.Errorf("%w: route-unit %q has no members", graph.ErrInvalidRoute, name)
	}
	agg := RouteUnitAggregate{Name: name}
	recs := map[graph.NodeID]*Record{}
	fetch := func(id graph.NodeID) (*Record, error) {
		if r, ok := recs[id]; ok {
			return r, nil
		}
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		r, err := v.read(id)
		if err != nil {
			return nil, err
		}
		recs[id] = r
		return r, nil
	}
	for _, m := range members {
		from, err := fetch(m[0])
		if err != nil {
			return RouteUnitAggregate{}, fmt.Errorf("netfile: route-unit %q: %w", name, err)
		}
		if _, err := fetch(m[1]); err != nil {
			return RouteUnitAggregate{}, fmt.Errorf("netfile: route-unit %q: %w", name, err)
		}
		var cost float64
		found := false
		for _, s := range from.Succs {
			if s.To == m[1] {
				cost = float64(s.Cost)
				found = true
				break
			}
		}
		if !found {
			return RouteUnitAggregate{}, fmt.Errorf("%w: route-unit %q member %d->%d is not an edge",
				graph.ErrInvalidRoute, name, m[0], m[1])
		}
		agg.Edges++
		agg.TotalCost += cost
		if agg.Edges == 1 || cost < agg.MinCost {
			agg.MinCost = cost
		}
		if cost > agg.MaxCost {
			agg.MaxCost = cost
		}
	}
	agg.Nodes = len(recs)
	return agg, nil
}

// Scan visits every record as of the view, page by page in page-id
// order (one page read per page). fn returning false stops early; it
// runs with no page held.
func (v View) Scan(fn func(rec *Record) bool) error {
	c := v.cursor()
	defer c.release()
	var recs []*Record
	for _, pid := range v.pageIDs() {
		if err := c.move(pid); err != nil {
			return err
		}
		var err error
		recs, err = decodePage(&c.sp, recs[:0])
		c.release()
		if err != nil {
			return fmt.Errorf("netfile: scan page %d: %w", pid, err)
		}
		for _, rec := range recs {
			if !fn(rec) {
				return nil
			}
		}
	}
	return nil
}

// pageIDs lists the data pages of the view in ascending order: the
// live page set, or the pages the overlay places a node on as of the
// pinned LSN.
func (v View) pageIDs() []storage.PageID {
	if v.pin.LSN == buffer.LiveLSN {
		return v.f.Pages()
	}
	pageSet := make(map[storage.PageID]bool)
	for _, pid := range v.f.placements(v.pin.LSN) {
		pageSet[pid] = true
	}
	pids := make([]storage.PageID, 0, len(pageSet))
	for pid := range pageSet {
		pids = append(pids, pid)
	}
	sort.Slice(pids, func(i, j int) bool { return pids[i] < pids[j] })
	return pids
}
