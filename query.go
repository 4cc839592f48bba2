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
// Executed statements additionally report the I/O the execution counted
// in Result.Actual, so predictions can be validated request by request.
//
// The planner reads the file's PAG summary (α, |A|, λ, γ and the
// page-pair counts), which every mutation keeps current, and resolves
// placements as of the statement's pinned LSN: no statement ever scans
// the file, or runs its search, to plan. Predicted pages are exact for
// FIND, WINDOW and ROUTE and estimated for NEIGHBORS and PATH.
//
// Like the other queries, an executed statement runs against an
// LSN-pinned snapshot: a concurrent Apply never blocks it and never
// tears its view.
func (s *Store) Query(ctx context.Context, src string) (res *Result, err error) {
	q, err := lang.Parse(src)
	if err != nil {
		return nil, err
	}
	var v readView
	if err = s.beginRead(ctx, opNone, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	cat, err := plan.NewCatalog(v.view)
	if err != nil {
		return nil, err
	}
	pl, err := plan.Build(cat, q)
	if err != nil {
		return nil, err
	}
	if q.Explain {
		return exec.Explain(pl), nil
	}
	// Only the execution is charged, and it is counted with or without
	// Metrics: what the account holds afterwards is the result's measured
	// I/O.
	v.charge(ctx, opQuery)
	res, err = exec.Run(ctx, v.view, pl, q)
	if err != nil {
		return nil, err
	}
	cost := v.acct.Cost
	res.Actual = &exec.Actuals{
		DataReads:    cost.Misses,
		IndexPages:   cost.IndexVisits,
		BufferHits:   cost.Hits,
		BufferMisses: cost.Misses,
	}
	return res, nil
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
