package ccam

// Acceptance tests for CCAM-QL: the planner must pick a different
// access path for a point lookup, a window query and a deep
// neighborhood. Where the memory-resident structures give the page set
// — FIND, WINDOW, ROUTE — the predicted data-page accesses equal the
// ReqStats-measured actuals (a cold pool reads each distinct page once);
// NEIGHBORS and PATH are estimated from the cost-model statistics and
// are judged in aggregate by ccam-bench -exp query -check.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"
)

func qlStore(t *testing.T) (*Store, *Network) {
	t.Helper()
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, PoolPages: 512, Seed: 3, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	return s, g
}

// runCold explains the statement, then executes it against a cold
// buffer pool with a ReqStats account attached, returning the explain
// result, the execution result and the measured stats.
func runCold(t *testing.T, s *Store, stmt string) (*Result, *Result, *ReqStats) {
	t.Helper()
	ctx := context.Background()
	exp, err := s.Query(ctx, "EXPLAIN "+stmt)
	if err != nil {
		t.Fatalf("EXPLAIN %s: %v", stmt, err)
	}
	if !exp.Explain || exp.Plan == nil || exp.Text == "" {
		t.Fatalf("EXPLAIN %s: incomplete result %+v", stmt, exp)
	}
	if err := s.ResetIO(); err != nil {
		t.Fatal(err)
	}
	rs := &ReqStats{}
	res, err := s.Query(WithReqStats(ctx, rs), stmt)
	if err != nil {
		t.Fatalf("Query(%s): %v", stmt, err)
	}
	return exp, res, rs
}

func TestQueryPlannerPicksDistinctPathsAndPredictsIO(t *testing.T) {
	s, g := qlStore(t)
	id := g.NodeIDs()[len(g.NodeIDs())/2]
	rec, err := s.Find(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}

	stmts := []struct {
		src      string
		wantPath string
	}{
		{fmt.Sprintf("FIND %d", id), "btree-point"},
		{fmt.Sprintf("WINDOW (%g, %g, %g, %g)",
			rec.Pos.X-200, rec.Pos.Y-200, rec.Pos.X+200, rec.Pos.Y+200), "zrange"},
		{fmt.Sprintf("NEIGHBORS %d DEPTH 2 AGG SUM(cost)", id), "successor-expansion"},
	}
	paths := map[string]bool{}
	for _, tc := range stmts {
		exp, res, rs := runCold(t, s, tc.src)
		got := string(exp.Plan.Chosen.Path)
		if got != tc.wantPath {
			t.Errorf("%s: chose %s, want %s", tc.src, got, tc.wantPath)
		}
		paths[got] = true

		predicted := float64(exp.Plan.Chosen.Pages)
		actual := float64(rs.DataReads)
		if actual == 0 {
			t.Fatalf("%s: no data reads measured", tc.src)
		}
		if rel := math.Abs(predicted-actual) / actual; got != "successor-expansion" && rel != 0 {
			t.Errorf("%s: predicted %v data pages, measured %v (%.0f%% off)",
				tc.src, predicted, actual, rel*100)
		}
		if res.Actual == nil || res.Actual.DataReads != rs.DataReads {
			t.Errorf("%s: Result.Actual = %+v, ReqStats reads %d",
				tc.src, res.Actual, rs.DataReads)
		}
		if res.Plan == nil || string(res.Plan.Chosen.Path) != got {
			t.Errorf("%s: executed plan differs from explained plan", tc.src)
		}
	}
	if len(paths) != 3 {
		t.Errorf("expected 3 distinct access paths, got %v", paths)
	}
}

func TestQueryHugeWindowFallsBackToScan(t *testing.T) {
	s, _ := qlStore(t)
	stmt := "WINDOW (-1e9, -1e9, 1e9, 1e9)"
	exp, res, rs := runCold(t, s, stmt)
	if got := string(exp.Plan.Chosen.Path); got != "pag-scan" {
		t.Fatalf("huge window chose %s, want pag-scan", got)
	}
	if exp.Plan.Chosen.Pages != s.NumPages() {
		t.Errorf("scan predicted %d pages, want %d", exp.Plan.Chosen.Pages, s.NumPages())
	}
	if rs.DataReads != int64(s.NumPages()) {
		t.Errorf("scan measured %d reads, want %d", rs.DataReads, s.NumPages())
	}
	if res.Count != s.Len() {
		t.Errorf("huge window matched %d nodes, want %d", res.Count, s.Len())
	}
}

// TestWindowReadsEachCandidatePageOnce: a window query borrows each of
// its candidates' pages once, in page order, so even behind a pool of
// four frames — fewer than most windows' pages — a cold window reads
// exactly the pages EXPLAIN counts, and asks the pool for each once.
func TestWindowReadsEachCandidatePageOnce(t *testing.T) {
	g := testMap(t)
	s, err := Open(Options{PageSize: 1024, PoolPages: 4, Seed: 3, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(5))
	b := g.Bounds()
	wide := 0
	for i := 0; i < 24; i++ {
		cx, cy := b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height()
		h := (0.03 + 0.12*rng.Float64()) * b.Width()
		stmt := fmt.Sprintf("WINDOW (%g, %g, %g, %g)", cx-h, cy-h, cx+h, cy+h)
		exp, res, rs := runCold(t, s, stmt)
		if exp.Plan.Chosen.Path != "zrange" {
			continue
		}
		pages := int64(exp.Plan.Chosen.Pages)
		if pages > 4 {
			wide++
		}
		if res.Actual.DataReads != pages {
			t.Errorf("%s: read %d data pages, EXPLAIN counts %d", stmt, res.Actual.DataReads, pages)
		}
		if req := rs.BufferHits + rs.BufferMisses; req != pages {
			t.Errorf("%s: %d pool requests for %d candidate pages", stmt, req, pages)
		}
	}
	if wide < 4 {
		t.Fatalf("only %d windows span more pages than the pool holds: the test proves little", wide)
	}
}

func TestQueryRouteAndPathPredictions(t *testing.T) {
	s, g := qlStore(t)
	// A genuine route: follow successor edges without backtracking.
	start := g.NodeIDs()[0]
	route := []NodeID{start}
	cur := start
	for len(route) < 6 {
		rec, err := s.Find(context.Background(), cur)
		if err != nil {
			t.Fatal(err)
		}
		advanced := false
		for _, sc := range rec.Succs {
			seen := false
			for _, r := range route {
				if r == sc.To {
					seen = true
					break
				}
			}
			if !seen {
				route = append(route, sc.To)
				cur = sc.To
				advanced = true
				break
			}
		}
		if !advanced {
			break
		}
	}
	if len(route) < 3 {
		t.Fatal("could not build a test route")
	}
	parts := make([]string, len(route))
	for i, r := range route {
		parts[i] = fmt.Sprint(r)
	}
	routeStmt := "ROUTE " + strings.Join(parts, ", ") + " AGG SUM(cost)"
	exp, res, rs := runCold(t, s, routeStmt)
	if got := string(exp.Plan.Chosen.Path); got != "successor-chain" {
		t.Errorf("route chose %s", got)
	}
	if int64(exp.Plan.Chosen.Pages) != rs.DataReads {
		t.Errorf("route predicted %d pages, measured %d", exp.Plan.Chosen.Pages, rs.DataReads)
	}
	if res.Agg == nil || math.Abs(res.Agg.Value-res.Cost) > 1e-9 {
		t.Errorf("SUM(cost) = %+v, route cost %v", res.Agg, res.Cost)
	}

	pathStmt := fmt.Sprintf("PATH %d TO %d", route[0], route[len(route)-1])
	expP, resP, rsP := runCold(t, s, pathStmt)
	if got := string(expP.Plan.Chosen.Path); got != "successor-expansion" {
		t.Errorf("path chose %s", got)
	}
	// PATH is estimated (a page-graph ball), not resolved: it names at
	// least the source's page and at most the file.
	if p := expP.Plan.Chosen.Pages; rsP.DataReads == 0 || p < 1 || p > s.NumPages() {
		t.Errorf("path predicted %d pages of %d, measured %d", p, s.NumPages(), rsP.DataReads)
	}
	if resP.Cost <= 0 || resP.Cost > res.Cost+1e-9 {
		t.Errorf("shortest cost %v vs route cost %v", resP.Cost, res.Cost)
	}
}

func TestQueryErrorsAndSentinels(t *testing.T) {
	s, _ := qlStore(t)
	ctx := context.Background()
	if _, err := s.Query(ctx, "SELECT * FROM t"); !errors.Is(err, ErrQueryParse) {
		t.Errorf("parse error = %v, want ErrQueryParse", err)
	}
	if _, err := s.Query(ctx, "NEIGHBORS 1 DEPTH 1 AGG SUM(nodes)"); !errors.Is(err, ErrQueryUnsupported) {
		t.Errorf("unsupported agg = %v, want ErrQueryUnsupported", err)
	}
	if _, err := s.Query(ctx, "FIND 4000000000"); !errors.Is(err, ErrNotFound) {
		t.Errorf("missing node = %v, want ErrNotFound", err)
	}
	for _, err := range []error{ErrQueryParse, ErrQueryUnsupported, ErrNoPath, ErrInvalidTour} {
		if !IsQueryError(err) {
			t.Errorf("IsQueryError(%v) = false", err)
		}
	}
	if IsQueryError(ErrNotFound) {
		t.Error("IsQueryError(ErrNotFound) = true")
	}
}

func TestQueryFindReturnsOneRow(t *testing.T) {
	s, g := qlStore(t)
	res, err := s.Query(context.Background(), fmt.Sprintf("FIND %d", g.NodeIDs()[0]))
	if err != nil || res.Count != 1 {
		t.Fatalf("Query(FIND) = %+v, %v", res, err)
	}
}

func TestQueryCatalogInvalidation(t *testing.T) {
	s, g := qlStore(t)
	ctx := context.Background()
	exp, err := s.Query(ctx, "EXPLAIN FIND 1")
	if err != nil {
		t.Fatal(err)
	}
	before := exp.Plan.Stats.Nodes
	if before != g.NumNodes() {
		t.Fatalf("catalog sees %d nodes, want %d", before, g.NumNodes())
	}
	// Delete a leaf-ish node; the next plan must be costed against the
	// mutated file.
	victim := g.NodeIDs()[len(g.NodeIDs())-1]
	if err := s.Apply(context.Background(), new(Batch).Delete(victim, FirstOrder)); err != nil {
		t.Fatal(err)
	}
	exp, err = s.Query(ctx, "EXPLAIN FIND 1")
	if err != nil {
		t.Fatal(err)
	}
	if exp.Plan.Stats.Nodes != before-1 {
		t.Errorf("catalog not invalidated: sees %d nodes, want %d",
			exp.Plan.Stats.Nodes, before-1)
	}
}

func TestExplainStatementHelper(t *testing.T) {
	cases := map[string]string{
		"FIND 1":            "EXPLAIN FIND 1",
		"explain FIND 1":    "explain FIND 1",
		"  EXPLAIN FIND 1":  "  EXPLAIN FIND 1",
		"EXPLAINFIND 1":     "EXPLAIN EXPLAINFIND 1",
		"WINDOW (1,2,3,4)":  "EXPLAIN WINDOW (1,2,3,4)",
		"Explain\tWINDOW x": "Explain\tWINDOW x",
	}
	for in, want := range cases {
		if got := ExplainStatement(in); got != want {
			t.Errorf("ExplainStatement(%q) = %q, want %q", in, got, want)
		}
	}
}
