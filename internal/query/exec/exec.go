// Package exec runs planned CCAM-QL statements against a stored file.
// The executor follows the plan's chosen access path exactly, so the
// measured data-page reads of an execution are directly comparable to
// the plan's predicted pages.
package exec

import (
	"context"
	"fmt"
	"sort"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/query"
	"ccam/internal/query/lang"
	"ccam/internal/query/plan"
)

// Source is the read surface a plan executes against: the traversal
// Reader plus the set, scan and window reads the access paths use.
// Both the live *netfile.File and an LSN-pinned *netfile.Snapshot
// implement it — the facade executes statements against a snapshot, so
// a running query never blocks a mutation batch and never sees a
// half-applied one.
type Source interface {
	query.Reader
	FindSetCtx(ctx context.Context, ids []graph.NodeID) ([]*netfile.Record, error)
	Scan(fn func(rec *netfile.Record) bool) error
	RangeQueryCtx(ctx context.Context, rect geom.Rect) ([]*netfile.Record, error)
}

var (
	_ Source = (*netfile.File)(nil)
	_ Source = (*netfile.Snapshot)(nil)
)

// MaxResultNodes caps the node rows a result carries; Count still
// reports the full match count and Truncated flags the cut.
const MaxResultNodes = 4096

// Actuals are the measured per-request I/O deltas of an execution,
// taken from the file's physical counters by the caller (the facade
// snapshots before Run and diffs after).
type Actuals struct {
	DataReads    int64 `json:"data_reads"`
	IndexPages   int64 `json:"index_pages"`
	BufferHits   int64 `json:"buffer_hits"`
	BufferMisses int64 `json:"buffer_misses"`
}

// NodeResult is one node row of a result.
type NodeResult struct {
	ID    graph.NodeID `json:"id"`
	X     float64      `json:"x"`
	Y     float64      `json:"y"`
	Succs int          `json:"succs"`
}

// AggValue is a computed aggregate.
type AggValue struct {
	Fn   string `json:"fn"`
	Attr string `json:"attr"`
	// Value is the aggregate value (for COUNT, the count as a float).
	Value float64 `json:"value"`
	// Count is the number of values aggregated over.
	Count int `json:"count"`
}

// Result is the outcome of one statement: the plan that produced it,
// the rows/aggregate/path payload of the statement kind, and — after
// execution — the measured I/O.
type Result struct {
	// Stmt is the canonical statement text; Kind its statement kind.
	Stmt string `json:"stmt"`
	Kind string `json:"kind"`
	// Explain is true when the statement was EXPLAIN-only: the plan
	// and its rendering are filled in, nothing was executed.
	Explain bool       `json:"explain,omitempty"`
	Plan    *plan.Plan `json:"plan,omitempty"`
	// Text is the human-readable EXPLAIN rendering.
	Text string `json:"text,omitempty"`

	// Nodes carries result rows (FIND, WINDOW, NEIGHBORS), capped at
	// MaxResultNodes and sorted by id; Count is the uncapped total.
	Nodes     []NodeResult `json:"nodes,omitempty"`
	Count     int          `json:"count,omitempty"`
	Truncated bool         `json:"truncated,omitempty"`
	// Agg is the AGG clause's value (NEIGHBORS, ROUTE).
	Agg *AggValue `json:"agg,omitempty"`
	// Cost and Path carry ROUTE/PATH traversal results.
	Cost float64        `json:"cost,omitempty"`
	Path []graph.NodeID `json:"path,omitempty"`

	// Actual is the measured I/O of the execution, filled by the
	// caller from physical-counter deltas; nil for EXPLAIN.
	Actual *Actuals `json:"actual,omitempty"`
}

// Explain builds the EXPLAIN-only result for a plan.
func Explain(pl *plan.Plan) *Result {
	return &Result{
		Stmt:    pl.Stmt,
		Kind:    pl.Kind,
		Explain: true,
		Plan:    pl,
		Text:    pl.Describe(),
	}
}

// Run executes the statement along the plan's chosen access path.
func Run(ctx context.Context, f Source, pl *plan.Plan, q *lang.Query) (*Result, error) {
	res := &Result{Stmt: pl.Stmt, Kind: pl.Kind, Plan: pl}
	var err error
	switch s := q.Stmt.(type) {
	case *lang.Find:
		err = runFind(ctx, f, s, res)
	case *lang.Window:
		err = runWindow(ctx, f, pl, s, res)
	case *lang.Neighbors:
		err = runNeighbors(ctx, f, pl, s, res)
	case *lang.RouteEval:
		err = runRoute(ctx, f, s, res)
	case *lang.ShortestPath:
		err = runPath(ctx, f, s, res)
	default:
		err = fmt.Errorf("%w: statement %T", plan.ErrUnsupported, q.Stmt)
	}
	if err != nil {
		return nil, err
	}
	return res, nil
}

func nodeRow(rec *netfile.Record) NodeResult {
	return NodeResult{ID: rec.ID, X: rec.Pos.X, Y: rec.Pos.Y, Succs: len(rec.Succs)}
}

// fillNodes sorts rows by id and applies the result cap.
func (r *Result) fillNodes(rows []NodeResult) {
	sort.Slice(rows, func(i, j int) bool { return rows[i].ID < rows[j].ID })
	r.Count = len(rows)
	if len(rows) > MaxResultNodes {
		rows = rows[:MaxResultNodes]
		r.Truncated = true
	}
	r.Nodes = rows
}

func runFind(ctx context.Context, f Source, s *lang.Find, res *Result) error {
	rec, err := f.FindCtx(ctx, s.ID)
	if err != nil {
		return err
	}
	res.fillNodes([]NodeResult{nodeRow(rec)})
	return nil
}

func runWindow(ctx context.Context, f Source, pl *plan.Plan, s *lang.Window, res *Result) error {
	var rows []NodeResult
	if pl.Chosen.Path == plan.PathPAGScan {
		// Sequential PAG-ordered scan, filtering in memory.
		var scanErr error
		err := f.Scan(func(rec *netfile.Record) bool {
			if scanErr = ctx.Err(); scanErr != nil {
				return false
			}
			if s.Rect.Contains(rec.Pos) {
				rows = append(rows, nodeRow(rec))
			}
			return true
		})
		if err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
	} else {
		recs, err := f.RangeQueryCtx(ctx, s.Rect)
		if err != nil {
			return err
		}
		rows = make([]NodeResult, len(recs))
		for i, rec := range recs {
			rows[i] = nodeRow(rec)
		}
	}
	res.fillNodes(rows)
	return nil
}

func runNeighbors(ctx context.Context, f Source, pl *plan.Plan, s *lang.Neighbors, res *Result) error {
	var fetch func(ids []graph.NodeID) ([]*netfile.Record, error)
	if pl.Chosen.Path == plan.PathPAGScan {
		// Load the whole file once, sequentially, then walk in memory.
		recs := make(map[graph.NodeID]*netfile.Record)
		var scanErr error
		err := f.Scan(func(rec *netfile.Record) bool {
			if scanErr = ctx.Err(); scanErr != nil {
				return false
			}
			recs[rec.ID] = rec
			return true
		})
		if err != nil {
			return err
		}
		if scanErr != nil {
			return scanErr
		}
		fetch = func(ids []graph.NodeID) ([]*netfile.Record, error) {
			out := make([]*netfile.Record, len(ids))
			for i, id := range ids {
				r, ok := recs[id]
				if !ok {
					return nil, fmt.Errorf("%w: %d", netfile.ErrNotFound, id)
				}
				out[i] = r
			}
			return out, nil
		}
	} else {
		// Successor expansion through the buffer pool, one set read per
		// level: every ball member's record is read exactly once, and
		// each level's pages are fetched once each, so a cold pool reads
		// the ball's distinct pages — what the planner estimates.
		fetch = func(ids []graph.NodeID) ([]*netfile.Record, error) {
			return f.FindSetCtx(ctx, ids)
		}
	}
	ball, interior, err := bfs(s.ID, s.Depth, fetch)
	if err != nil {
		return err
	}
	rows := make([]NodeResult, len(ball))
	for i, rec := range ball {
		rows[i] = nodeRow(rec)
	}
	res.fillNodes(rows)
	if s.Agg != nil {
		res.Agg = neighborsAgg(s.Agg, ball, interior)
	}
	return nil
}

// bfs walks successor edges breadth-first from start for depth hops and
// fetches each level's newly discovered nodes as one set, each node
// once. It returns the ball (all reached nodes, start included, in
// discovery order) and the interior (the expanded nodes).
func bfs(start graph.NodeID, depth int, fetch func([]graph.NodeID) ([]*netfile.Record, error)) (ball, interior []*netfile.Record, err error) {
	seen := map[graph.NodeID]bool{start: true}
	frontier, err := fetch([]graph.NodeID{start})
	if err != nil {
		return nil, nil, err
	}
	ball = frontier
	for d := 0; d < depth && len(frontier) > 0; d++ {
		var level []graph.NodeID
		for _, u := range frontier {
			interior = append(interior, u)
			for _, s := range u.Succs {
				if !seen[s.To] {
					seen[s.To] = true
					level = append(level, s.To)
				}
			}
		}
		if len(level) == 0 {
			break
		}
		if frontier, err = fetch(level); err != nil {
			return nil, nil, err
		}
		ball = append(ball, frontier...)
	}
	return ball, interior, nil
}

// neighborsAgg computes the AGG clause over the neighborhood:
// COUNT(nodes) counts the ball; the cost aggregates run over every
// successor edge of the interior (expanded) nodes.
func neighborsAgg(a *lang.Agg, ball, interior []*netfile.Record) *AggValue {
	out := &AggValue{Fn: a.Fn.String(), Attr: a.Attr}
	if a.Attr == "nodes" {
		out.Count = len(ball)
		out.Value = float64(len(ball))
		return out
	}
	for _, u := range interior {
		for _, s := range u.Succs {
			c := float64(s.Cost)
			switch a.Fn {
			case lang.AggSum:
				out.Value += c
			case lang.AggMin:
				if out.Count == 0 || c < out.Value {
					out.Value = c
				}
			}
			out.Count++
		}
	}
	if a.Fn == lang.AggCount {
		out.Value = float64(out.Count)
	}
	return out
}

func runRoute(ctx context.Context, f Source, s *lang.RouteEval, res *Result) error {
	agg, err := f.EvaluateRouteCtx(ctx, graph.Route(s.IDs))
	if err != nil {
		return err
	}
	res.Cost = agg.TotalCost
	res.Count = agg.Nodes
	res.Path = append([]graph.NodeID(nil), s.IDs...)
	if s.Agg != nil {
		out := &AggValue{Fn: s.Agg.Fn.String(), Attr: s.Agg.Attr}
		switch {
		case s.Agg.Attr == "nodes": // COUNT(nodes)
			out.Count = agg.Nodes
			out.Value = float64(agg.Nodes)
		case s.Agg.Fn == lang.AggSum:
			out.Count = agg.Nodes - 1
			out.Value = agg.TotalCost
		case s.Agg.Fn == lang.AggMin:
			out.Count = agg.Nodes - 1
			out.Value = agg.MinCost
		case s.Agg.Fn == lang.AggCount:
			out.Count = agg.Nodes - 1
			out.Value = float64(agg.Nodes - 1)
		}
		res.Agg = out
	}
	return nil
}

func runPath(ctx context.Context, f Source, s *lang.ShortestPath, res *Result) error {
	p, err := query.ShortestPath(ctx, f, s.Src, s.Dst, 0)
	if err != nil {
		return err
	}
	res.Cost = p.Cost
	res.Path = p.Nodes
	res.Count = len(p.Nodes)
	return nil
}
