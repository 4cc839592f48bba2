package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"math/rand"
	"strings"

	"ccam"
	"ccam/internal/graph"
)

// runQueryExp exercises the CCAM-QL planner and reports predicted vs
// measured data-page accesses. Each statement is EXPLAINed first, then
// executed against a cold buffer pool with a per-request stats account,
// so the measured reads are exactly the distinct data pages the access
// path touched. The table runs one statement per shape; FIND, WINDOW
// and ROUTE are predicted exactly. NEIGHBORS and PATH are estimated, so
// they are measured over samples drawn with fixed seeds — sources for
// NEIGHBORS at depths 1 and 2, random-walk pairs for PATH at three
// distances — and judged by the sums. With check the run fails unless
// the exact rows are exact, each NEIGHBORS sample is within 30% and each
// PATH sample within 50% in aggregate, and the planner used at least
// three distinct access paths.
func runQueryExp(w io.Writer, g *graph.Network, seed int64, check bool) error {
	st, err := ccam.Open(ccam.Options{PageSize: 1024, PoolPages: 512, Seed: seed})
	if err != nil {
		return err
	}
	defer st.Close()
	if err := st.Build(g); err != nil {
		return err
	}
	ctx := context.Background()
	// run explains stmt, executes it cold and returns the chosen path with
	// the predicted and measured data-page reads.
	run := func(stmt string) (path string, predicted, measured int64, err error) {
		exp, err := st.Query(ctx, ccam.ExplainStatement(stmt))
		if err != nil {
			return "", 0, 0, fmt.Errorf("explain %q: %w", stmt, err)
		}
		if err := st.ResetIO(); err != nil {
			return "", 0, 0, err
		}
		res, err := st.Query(ctx, stmt)
		if err != nil {
			return "", 0, 0, fmt.Errorf("query %q: %w", stmt, err)
		}
		return string(exp.Plan.Chosen.Path), int64(exp.Plan.Chosen.Pages), res.Actual.DataReads, nil
	}

	ids := g.NodeIDs()
	mid := ids[len(ids)/2]
	rec, err := st.Find(ctx, mid)
	if err != nil {
		return err
	}
	route, err := sampleRoute(ctx, st, ids[0], 6)
	if err != nil {
		return err
	}
	parts := make([]string, len(route))
	for i, id := range route {
		parts[i] = fmt.Sprint(id)
	}
	stmts := []struct {
		src   string
		exact bool
	}{
		{fmt.Sprintf("FIND %d", mid), true},
		{fmt.Sprintf("WINDOW (%g, %g, %g, %g)",
			rec.Pos.X-200, rec.Pos.Y-200, rec.Pos.X+200, rec.Pos.Y+200), true},
		{"WINDOW (-1e12, -1e12, 1e12, 1e12)", true},
		{fmt.Sprintf("NEIGHBORS %d DEPTH 1", mid), false},
		{fmt.Sprintf("NEIGHBORS %d DEPTH 2 AGG SUM(cost)", mid), false},
		{"ROUTE " + strings.Join(parts, ", ") + " AGG SUM(cost)", true},
		{fmt.Sprintf("PATH %d TO %d", route[0], route[len(route)-1]), false},
	}

	fmt.Fprintln(w, "CCAM-QL planner: predicted vs measured data-page accesses")
	fmt.Fprintf(w, "%-44s %-20s %9s %9s %7s\n",
		"statement", "access path", "predicted", "measured", "error")
	paths := map[string]bool{}
	var failures []string
	for _, s := range stmts {
		path, predicted, measured, err := run(s.src)
		if err != nil {
			return err
		}
		paths[path] = true
		rel := relErr(predicted, measured)
		fmt.Fprintf(w, "%-44s %-20s %9d %9d %6.1f%%\n", s.src, path, predicted, measured, rel*100)
		if s.exact && rel != 0 {
			failures = append(failures, fmt.Sprintf("%s predicted %d pages, measured %d", s.src, predicted, measured))
		}
	}

	// The estimated shapes, sampled with fixed seeds.
	rng := rand.New(rand.NewSource(seed))
	type sample struct {
		name  string
		stmts []string
		limit float64
	}
	var samples []sample
	for _, depth := range []int{1, 2} {
		s := sample{name: fmt.Sprintf("NEIGHBORS depth %d, 200 sources", depth), limit: 0.30}
		for i := 0; i < 200; i++ {
			s.stmts = append(s.stmts, fmt.Sprintf("NEIGHBORS %d DEPTH %d", ids[rng.Intn(len(ids))], depth))
		}
		samples = append(samples, s)
	}
	for _, hops := range []int{5, 15, 40} {
		walks, err := ccam.RandomWalkRoutes(g, 100, hops+1, rng)
		if err != nil {
			return err
		}
		s := sample{name: fmt.Sprintf("PATH %d-hop random walks, 100 pairs", hops), limit: 0.50}
		for _, r := range walks {
			s.stmts = append(s.stmts, fmt.Sprintf("PATH %d TO %d", r[0], r[len(r)-1]))
		}
		samples = append(samples, s)
	}
	fmt.Fprintf(w, "%-44s %11s %11s %7s\n", "sample", "Σpredicted", "Σmeasured", "error")
	for _, s := range samples {
		var predicted, measured int64
		for _, stmt := range s.stmts {
			_, p, m, err := run(stmt)
			if err != nil {
				return err
			}
			predicted += p
			measured += m
		}
		rel := relErr(predicted, measured)
		fmt.Fprintf(w, "%-44s %11d %11d %6.1f%%\n", s.name, predicted, measured, rel*100)
		if rel > s.limit {
			failures = append(failures, fmt.Sprintf("%s: aggregate error %.1f%% > %.0f%%", s.name, rel*100, s.limit*100))
		}
	}
	fmt.Fprintf(w, "distinct access paths chosen: %d\n", len(paths))

	if check {
		if len(paths) < 3 {
			failures = append(failures, fmt.Sprintf("only %d distinct access paths chosen", len(paths)))
		}
		if len(failures) > 0 {
			return fmt.Errorf("query check failed: %s", strings.Join(failures, "; "))
		}
		fmt.Fprintln(w, "check: ok")
	}
	return nil
}

// relErr is |predicted - measured| / measured (1 for a prediction of
// reads where none were measured).
func relErr(predicted, measured int64) float64 {
	if measured > 0 {
		return math.Abs(float64(predicted-measured)) / float64(measured)
	}
	if predicted != 0 {
		return 1
	}
	return 0
}

// sampleRoute follows successor edges from start without revisiting a
// node, producing a genuine route of up to n nodes.
func sampleRoute(ctx context.Context, st *ccam.Store, start ccam.NodeID, n int) ([]ccam.NodeID, error) {
	route := []ccam.NodeID{start}
	seen := map[ccam.NodeID]bool{start: true}
	cur := start
	for len(route) < n {
		rec, err := st.Find(ctx, cur)
		if err != nil {
			return nil, err
		}
		advanced := false
		for _, sc := range rec.Succs {
			if !seen[sc.To] {
				route = append(route, sc.To)
				seen[sc.To] = true
				cur = sc.To
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	if len(route) < 2 {
		return nil, fmt.Errorf("could not sample a route from node %d", start)
	}
	return route, nil
}
