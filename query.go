package ccam

import (
	"context"
	"errors"
	"strings"

	"ccam/internal/query"
	"ccam/internal/query/exec"
	"ccam/internal/query/lang"
	"ccam/internal/query/plan"
)

// Result is the outcome of one CCAM-QL statement: the plan the
// cost-model-driven planner chose, the statement's rows / aggregate /
// path payload, and (after execution) the measured per-request I/O.
// EXPLAIN statements return the plan and its rendering only.
type Result = exec.Result

// QueryPlan is the planner's output: the chosen access path with its
// predicted data-page accesses, the costed alternatives, and the
// statistics snapshot (α, |A|, λ, γ) the choice was made against.
type QueryPlan = plan.Plan

// NodeResult is one row of a Result: a matched node with its position
// and successor ids.
type NodeResult = exec.NodeResult

// AggValue is a Result's computed aggregate.
type AggValue = exec.AggValue

// QueryActuals is a Result's measured per-request I/O account.
type QueryActuals = exec.Actuals

// Query-language sentinel errors.
var (
	// ErrQueryParse reports a CCAM-QL statement the parser rejected.
	// The concrete error is a *lang.ParseError carrying the byte
	// offset; errors.Is(err, ErrQueryParse) classifies it.
	ErrQueryParse = lang.ErrParse
	// ErrQueryUnsupported reports a statement that parses but that the
	// planner cannot execute (e.g. an aggregate attribute the
	// statement kind does not define).
	ErrQueryUnsupported = plan.ErrUnsupported
	// ErrInvalidTour reports a malformed tour passed to EvaluateTour.
	ErrInvalidTour = query.ErrInvalidTour
)

// Query parses, plans and executes one CCAM-QL statement:
//
//	FIND <id>
//	WINDOW (<x1>, <y1>, <x2>, <y2>)
//	NEIGHBORS <id> DEPTH <k> [AGG SUM|MIN|COUNT(<attr>)]
//	ROUTE <id>, <id>, ... [AGG SUM|MIN|COUNT(<attr>)]
//	PATH <src> TO <dst>
//
// optionally prefixed with EXPLAIN, which returns the chosen plan —
// access path and predicted data-page accesses from the paper's §3
// cost model fed with the file's live statistics — without executing.
// Executed statements additionally report the measured I/O deltas in
// Result.Actual, so predictions can be validated request by request.
//
// The planner consults a catalog built lazily from a pinned snapshot
// on first use and kept current incrementally: every committed batch
// folds its ops and placement moves into the catalog's mirrors and
// counters, so the statistics always describe the current placement
// without a per-mutation rescan (only Build drops the catalog).
//
// Like the other queries, an executed statement runs against an
// LSN-pinned snapshot: a concurrent Apply never blocks it and never
// tears its view (Options.ExclusiveReads restores the shared lock).
func (s *Store) Query(ctx context.Context, src string) (*Result, error) {
	q, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	f := v.f
	pl, err := s.plan(v, q)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		return exec.Explain(pl), nil
	}
	var es exec.Source = f
	if v.pinned {
		es = v.view
	}
	// Snapshot the physical counters around the execution so the
	// result carries its measured I/O even on stores without Metrics.
	io0 := f.DataIO()
	pool0 := f.Pool().Stats()
	idx0 := f.IndexVisits()
	var res *Result
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.query, f)
		res, err = exec.Run(ctx, es, pl, q)
		sn.end(err)
	} else {
		res, err = exec.Run(ctx, es, pl, q)
	}
	if err != nil {
		return nil, err
	}
	io := f.DataIO().Sub(io0)
	ps := f.Pool().Stats().Sub(pool0)
	res.Actual = &exec.Actuals{
		DataReads:    io.Reads,
		IndexPages:   f.IndexVisits() - idx0,
		BufferHits:   ps.Hits,
		BufferMisses: ps.Misses,
	}
	return res, nil
}

// Query is the ctx-less convenience form of Store.Query.
func (p Plain) Query(src string) (*Result, error) {
	return p.q.Query(context.Background(), src)
}

// plan costs q against the store's cached planner catalog, building
// the catalog on first use with one sequential scan of the given read
// view — the pinned snapshot when one is open, so the build neither
// blocks nor is torn by a concurrent Apply. The catalog is planned
// against under catMu's read side: Apply folds each committed batch
// into the same maps under the write side, and a plan carries only
// values out. catLSN records the commit the catalog reflects, so
// Apply's incremental deltas know where to resume (lock order: mu, if
// held, always before catMu).
func (s *Store) plan(v readView, q *lang.Query) (*plan.Plan, error) {
	s.catMu.RLock()
	for s.cat == nil {
		s.catMu.RUnlock()
		if err := s.buildCatalog(v); err != nil {
			return nil, err
		}
		s.catMu.RLock()
	}
	defer s.catMu.RUnlock()
	return plan.Build(s.cat, q)
}

// buildCatalog installs the catalog unless a concurrent first query
// already has.
func (s *Store) buildCatalog(v readView) error {
	s.catMu.Lock()
	defer s.catMu.Unlock()
	if s.cat != nil {
		return nil
	}
	var src plan.Source = v.f
	var lsn uint64
	if v.pinned {
		src = v.view
		lsn = v.view.LSN()
	}
	cat, err := plan.NewCatalog(src)
	if err != nil {
		return err
	}
	s.cat = cat
	s.catLSN = lsn
	return nil
}

// invalidateCatalog drops the cached planner catalog; the next Query
// rebuilds it from scratch. Only Build calls it now — placement there
// changes wholesale — while Apply and the background reorganizer keep
// the catalog current incrementally (applyCatalogDeltas).
func (s *Store) invalidateCatalog() {
	s.catMu.Lock()
	s.cat = nil
	s.catLSN = 0
	s.catMu.Unlock()
}

// IsQueryError reports whether err belongs to the query-language error
// family (parse failure, unsupported statement, no path, invalid
// tour/route) as opposed to a storage-layer failure. The serving layer
// uses it to map such failures to client-error responses.
func IsQueryError(err error) bool {
	return errors.Is(err, ErrQueryParse) ||
		errors.Is(err, ErrQueryUnsupported) ||
		errors.Is(err, ErrNoPath) ||
		errors.Is(err, ErrInvalidTour)
}

// ExplainStatement returns src with an EXPLAIN prefix, unless one is
// already present (case-insensitively). The serving layer uses it to
// honor a request's explain flag without double prefixing.
func ExplainStatement(src string) string {
	trimmed := strings.TrimLeft(src, " \t\r\n")
	if len(trimmed) >= len("EXPLAIN") && strings.EqualFold(trimmed[:len("EXPLAIN")], "EXPLAIN") {
		rest := trimmed[len("EXPLAIN"):]
		if rest == "" || rest[0] == ' ' || rest[0] == '\t' || rest[0] == '\r' || rest[0] == '\n' {
			return src
		}
	}
	return "EXPLAIN " + src
}
