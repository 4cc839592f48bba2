package netfile

import (
	"context"
	"errors"
	"fmt"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// The search operations of the live file run on the same page cursor
// as a View's (cursor.go), over File.live().

// Find retrieves the record of the given node id: the secondary index
// locates the data page, which is fetched through the buffer pool.
// (Paper §2.3.)
func (f *File) Find(id graph.NodeID) (*Record, error) {
	return f.live().FindCtx(context.Background(), id)
}

// FindCtx is Find with cooperative cancellation.
func (f *File) FindCtx(ctx context.Context, id graph.NodeID) (*Record, error) {
	return f.live().FindCtx(ctx, id)
}

// FindSetCtx retrieves the records of ids in the order of ids, each
// distinct data page fetched once (see View.FindSetCtx).
func (f *File) FindSetCtx(ctx context.Context, ids []graph.NodeID) ([]*Record, error) {
	return f.live().FindSetCtx(ctx, ids)
}

// GetASuccessor retrieves the record of succ, a successor of cur. cur
// may be nil, in which case the successor constraint is not checked.
// The index lookup is free (memory resident) and the page fetch costs
// a physical read only when the page is not buffered — when the CRR is
// high the successor is likely co-located with cur and is a pool hit.
// That is as close as a call that is handed cur as a record can come
// to the paper's "search the buffered page containing cur first";
// GetSuccessors and EvaluateRoute, which own their position, stay on
// the page instead. (Paper §2.3.)
func (f *File) GetASuccessor(cur *Record, succ graph.NodeID) (*Record, error) {
	return f.live().GetASuccessor(cur, succ)
}

// GetSuccessorsCtx retrieves the records of all successors of node id.
// Successors stored on the page of id itself, or on the page of the
// successor before them, are read in place without another fetch.
// (Paper §2.3.) The context is checked before each fetch.
func (f *File) GetSuccessorsCtx(ctx context.Context, id graph.NodeID) ([]*Record, error) {
	return f.live().GetSuccessorsCtx(ctx, id)
}

// RouteAggregate is the result of a route evaluation query.
type RouteAggregate struct {
	Nodes     int     // L, the number of nodes on the route
	TotalCost float64 // sum of edge costs (e.g. travel time)
	MinCost   float64 // cheapest hop
	MaxCost   float64 // most expensive hop
}

// EvaluateRouteCtx computes the aggregate property of a route as a
// Find on the first node followed by a sequence of Get-A-successor
// operations (paper §2.3, "Route Evaluation"). The route must follow
// directed edges. The context is checked before each hop's fetch.
func (f *File) EvaluateRouteCtx(ctx context.Context, route graph.Route) (RouteAggregate, error) {
	return f.live().EvaluateRouteCtx(ctx, route)
}

// RangeQueryCtx returns the records of every node whose position lies
// in rect, through the secondary spatial index (a Z-order scan with
// BIGMIN jumps; paper §2.1). The context is checked before each page's
// fetch.
func (f *File) RangeQueryCtx(ctx context.Context, rect geom.Rect) ([]*Record, error) {
	return f.live().RangeQueryCtx(ctx, rect)
}

// Scan visits every stored record, page by page in page-id order (a
// sequential scan: one physical read per data page). fn returning false
// stops the scan early.
func (f *File) Scan(fn func(rec *Record) bool) error {
	return f.live().Scan(fn)
}

// Nearest returns the k stored records closest to p by Euclidean
// distance, nearest first (see View.Nearest).
func (f *File) Nearest(ctx context.Context, p geom.Point, k int) ([]*Record, error) {
	return f.live().Nearest(ctx, p, k)
}

// InsertOp describes a node insertion: the new record (whose Preds
// field lists predecessor ids) plus the cost of each predecessor edge
// pred[i] -> new node.
type InsertOp struct {
	Rec       *Record
	PredCosts []float32
}

// Validate checks internal consistency of the operation. It refuses
// the reserved id graph.InvalidNodeID, which no file can store.
func (op *InsertOp) Validate() error {
	if op.Rec == nil {
		return fmt.Errorf("netfile: nil record in insert")
	}
	if op.Rec.ID == graph.InvalidNodeID {
		return errReservedID
	}
	if len(op.PredCosts) != len(op.Rec.Preds) {
		return fmt.Errorf("netfile: %d pred costs for %d preds", len(op.PredCosts), len(op.Rec.Preds))
	}
	return nil
}

// InsertOpFromNode builds the InsertOp that would re-insert node id of
// g with all its current edges.
func InsertOpFromNode(g *graph.Network, id graph.NodeID) (*InsertOp, error) {
	rec, err := RecordFromNode(g, id)
	if err != nil {
		return nil, err
	}
	op := &InsertOp{Rec: rec, PredCosts: make([]float32, len(rec.Preds))}
	for i, p := range rec.Preds {
		e, err := g.Edge(p, id)
		if err != nil {
			return nil, err
		}
		op.PredCosts[i] = float32(e.Cost)
	}
	return op, nil
}

// OverflowHandler splits an overflowing data page; access methods
// supply their own (CCAM re-clusters, sequential methods split in
// half). After it returns nil the triggering update is retried.
type OverflowHandler func(pid storage.PageID) error

// UpdateNeighborLinks adds the new node to its neighbors' lists: each
// successor gains a predecessor entry, each predecessor gains a
// successor entry ("update succ-list and pred-list of neighbors(x)",
// paper Fig. 3). Growth that overflows a neighbor's page invokes
// onOverflow and retries.
func (f *File) UpdateNeighborLinks(op *InsertOp, onOverflow OverflowHandler) error {
	x := op.Rec.ID
	for _, s := range op.Rec.Succs {
		if err := f.mutateRecord(s.To, onOverflow, func(r *Record) {
			r.AddPred(x)
		}); err != nil {
			return fmt.Errorf("netfile: link succ %d: %w", s.To, err)
		}
	}
	for i, p := range op.Rec.Preds {
		cost := op.PredCosts[i]
		if err := f.mutateRecord(p, onOverflow, func(r *Record) {
			r.AddSucc(x, cost)
		}); err != nil {
			return fmt.Errorf("netfile: link pred %d: %w", p, err)
		}
	}
	return nil
}

// RemoveNeighborLinks strips node x from its neighbors' lists (paper
// Fig. 4). Records only shrink, so no overflow can occur.
func (f *File) RemoveNeighborLinks(rec *Record) error {
	x := rec.ID
	for _, s := range rec.Succs {
		if err := f.mutateRecord(s.To, nil, func(r *Record) {
			r.RemovePred(x)
		}); err != nil {
			return fmt.Errorf("netfile: unlink succ %d: %w", s.To, err)
		}
	}
	for _, p := range rec.Preds {
		if err := f.mutateRecord(p, nil, func(r *Record) {
			r.RemoveSucc(x)
		}); err != nil {
			return fmt.Errorf("netfile: unlink pred %d: %w", p, err)
		}
	}
	return nil
}

// mutateRecord reads, mutates and rewrites node id's record, retrying
// once after onOverflow splits the page.
func (f *File) mutateRecord(id graph.NodeID, onOverflow OverflowHandler, mutate func(*Record)) error {
	for attempt := 0; ; attempt++ {
		rec, err := f.Find(id)
		if err != nil {
			return err
		}
		mutate(rec)
		err = f.UpdateRecord(rec)
		if err == nil {
			return nil
		}
		if !errors.Is(err, storage.ErrPageFull) || onOverflow == nil || attempt > 0 {
			return err
		}
		pid, perr := f.PageOf(id)
		if perr != nil {
			return perr
		}
		if err := onOverflow(pid); err != nil {
			return fmt.Errorf("netfile: overflow split of page %d: %w", pid, err)
		}
	}
}

// PlaceRecord stores rec by the paper's insertion rule and returns its
// page: the page holding the most neighbors of rec that has space
// (SelectPageWithMostNeighbors), else any page with space
// (FindPageWithSpace), else a fresh page.
func (f *File) PlaceRecord(rec *Record) (storage.PageID, error) {
	need := rec.EncodedSize() + storage.PerRecordOverhead
	pid, ok, err := f.SelectPageWithMostNeighbors(rec.Neighbors(), need)
	if err != nil {
		return storage.InvalidPageID, err
	}
	if !ok {
		pid, ok = f.FindPageWithSpace(need)
		if !ok {
			pid, err = f.AllocatePage()
			if err != nil {
				return storage.InvalidPageID, err
			}
		}
	}
	if err := f.InsertRecordAt(rec, pid); err != nil {
		return storage.InvalidPageID, err
	}
	return pid, nil
}

// SelectPageWithMostNeighbors ranks the candidate pages by how many of
// x's neighbors they hold and returns the best page that can still
// accommodate need bytes (the paper's insert page selection). ok is
// false when no candidate fits.
func (f *File) SelectPageWithMostNeighbors(neighbors []graph.NodeID, need int) (storage.PageID, bool, error) {
	counts := map[storage.PageID]int{}
	for _, nb := range neighbors {
		pid, err := f.PageOf(nb)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return storage.InvalidPageID, false, err
		}
		counts[pid]++
	}
	// Deterministic order: best count, then lowest page id.
	best := storage.InvalidPageID
	bestCount := -1
	for pid, c := range counts {
		if c > bestCount || (c == bestCount && pid < best) {
			// Space check via the memory-resident free-space map.
			free, err := f.FreeSpace(pid)
			if err != nil {
				return storage.InvalidPageID, false, err
			}
			if free >= need {
				best, bestCount = pid, c
			}
		}
	}
	if bestCount < 0 {
		return storage.InvalidPageID, false, nil
	}
	return best, true, nil
}

// PagesOfNeighbors returns the distinct pages of the given nodes, in
// ascending order (PagesOfNbrs(x) of paper Definition 2, computed from
// the index).
func (f *File) PagesOfNeighbors(neighbors []graph.NodeID) ([]storage.PageID, error) {
	seen := map[storage.PageID]bool{}
	var out []storage.PageID
	for _, nb := range neighbors {
		pid, err := f.PageOf(nb)
		if err != nil {
			if errors.Is(err, ErrNotFound) {
				continue
			}
			return nil, err
		}
		if !seen[pid] {
			seen[pid] = true
			out = append(out, pid)
		}
	}
	sortPageIDs(out)
	return out, nil
}

func sortPageIDs(s []storage.PageID) {
	for i := 1; i < len(s); i++ {
		for j := i; j > 0 && s[j] < s[j-1]; j-- {
			s[j], s[j-1] = s[j-1], s[j]
		}
	}
}

// AddEdgeRecords applies a new edge (u, v, cost) to the stored records:
// u's successor-list gains (v, cost) and v's predecessor-list gains u.
// Growth that overflows a page invokes onOverflow and retries.
func (f *File) AddEdgeRecords(u, v graph.NodeID, cost float32, onOverflow OverflowHandler) error {
	if u == v {
		return fmt.Errorf("%w: %d", graph.ErrSelfLoop, u)
	}
	// The head is looked up before the tail gains its entry: a failure
	// then leaves no successor pointing at a node that is not stored.
	if !f.Has(v) {
		return fmt.Errorf("netfile: add edge %d->%d: %w: %d", u, v, ErrNotFound, v)
	}
	dup := false
	if err := f.mutateRecord(u, onOverflow, func(r *Record) {
		if r.HasSucc(v) {
			dup = true
			return
		}
		r.AddSucc(v, cost)
	}); err != nil {
		return fmt.Errorf("netfile: add edge %d->%d: %w", u, v, err)
	}
	if dup {
		return fmt.Errorf("%w: %d->%d", graph.ErrEdgeExists, u, v)
	}
	if err := f.mutateRecord(v, onOverflow, func(r *Record) {
		r.AddPred(u)
	}); err != nil {
		return fmt.Errorf("netfile: add edge %d->%d: %w", u, v, err)
	}
	return nil
}

// RemoveEdgeRecords deletes edge (u, v) from the stored records.
func (f *File) RemoveEdgeRecords(u, v graph.NodeID) error {
	missing := false
	if err := f.mutateRecord(u, nil, func(r *Record) {
		if !r.RemoveSucc(v) {
			missing = true
		}
	}); err != nil {
		return fmt.Errorf("netfile: remove edge %d->%d: %w", u, v, err)
	}
	if missing {
		return fmt.Errorf("%w: %d->%d", graph.ErrEdgeMissing, u, v)
	}
	if err := f.mutateRecord(v, nil, func(r *Record) {
		r.RemovePred(u)
	}); err != nil {
		return fmt.Errorf("netfile: remove edge %d->%d: %w", u, v, err)
	}
	return nil
}

// SetEdgeCost updates the stored cost of edge (u, v) — the frequent
// IVHS operation of refreshing current travel time on a road segment.
// The record size is unchanged, so exactly one page is touched.
func (f *File) SetEdgeCost(u, v graph.NodeID, cost float32) error {
	found := false
	if err := f.mutateRecord(u, nil, func(r *Record) {
		for i := range r.Succs {
			if r.Succs[i].To == v {
				r.Succs[i].Cost = cost
				found = true
				return
			}
		}
	}); err != nil {
		return fmt.Errorf("netfile: set edge cost %d->%d: %w", u, v, err)
	}
	if !found {
		return fmt.Errorf("%w: %d->%d", graph.ErrEdgeMissing, u, v)
	}
	return nil
}

// RouteUnitAggregate is the result of an aggregate query over a
// route-unit — a named collection of arcs with common characteristics
// (paper §1.1: bus routes, pipeline segments). Processing "may require
// the retrieval of all nodes and all edges in the specified route-units
// to derive aggregate properties".
type RouteUnitAggregate struct {
	Name      string
	Edges     int
	Nodes     int // distinct nodes touched by the unit
	TotalCost float64
	MinCost   float64
	MaxCost   float64
}

// EvaluateRouteUnit retrieves every node record of the route-unit and
// aggregates its member edges' costs (see View.EvaluateRouteUnit).
func (f *File) EvaluateRouteUnit(ctx context.Context, name string, members [][2]graph.NodeID) (RouteUnitAggregate, error) {
	return f.live().EvaluateRouteUnit(ctx, name, members)
}
