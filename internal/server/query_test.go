package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"ccam"
	"ccam/internal/wire"
)

// TestQueryBothProtocols runs the same CCAM-QL statements over the
// binary and the JSON protocol and compares each result against the
// statement run directly on the store.
func TestQueryBothProtocols(t *testing.T) {
	st, g := testStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})
	ctx := context.Background()

	ids := g.NodeIDs()
	id := ids[len(ids)/2]
	rec, err := st.Find(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	stmts := []string{
		fmt.Sprintf("FIND %d", id),
		fmt.Sprintf("WINDOW (%g, %g, %g, %g)",
			rec.Pos.X-200, rec.Pos.Y-200, rec.Pos.X+200, rec.Pos.Y+200),
		fmt.Sprintf("NEIGHBORS %d DEPTH 2 AGG SUM(cost)", id),
		fmt.Sprintf("PATH %d TO %d", ids[0], id),
	}

	for _, p := range protocols(t, binAddr, httpBase) {
		t.Run(p.name, func(t *testing.T) {
			for _, stmt := range stmts {
				want, err := st.Query(ctx, stmt)
				if err != nil {
					t.Fatalf("direct Query(%s): %v", stmt, err)
				}
				got, err := call[*ccam.Result](ctx, p, wire.OpQuery, wire.QueryRequest{Query: stmt})
				if err != nil {
					t.Fatalf("remote Query(%s): %v", stmt, err)
				}
				// The I/O account depends on pool temperature at run
				// time; everything else must round-trip exactly.
				if got.Actual == nil {
					t.Fatalf("%s: no actuals in remote result", stmt)
				}
				got.Actual, want.Actual = nil, nil
				if !reflect.DeepEqual(got, want) {
					t.Errorf("%s:\n remote %+v\n direct %+v", stmt, got, want)
				}

				// The explain flag returns the plan without executing.
				exp, err := call[*ccam.Result](ctx, p, wire.OpQuery, wire.QueryRequest{Query: stmt, Explain: true})
				if err != nil {
					t.Fatalf("remote Explain(%s): %v", stmt, err)
				}
				if !exp.Explain || exp.Plan == nil || exp.Text == "" || exp.Actual != nil {
					t.Errorf("%s: explain result %+v", stmt, exp)
				}
				if exp.Plan.Chosen.Path != want.Plan.Chosen.Path {
					t.Errorf("%s: explain chose %s, execute chose %s",
						stmt, exp.Plan.Chosen.Path, want.Plan.Chosen.Path)
				}
			}
			// An EXPLAIN prefix in the statement itself works too, and
			// the explain flag does not double-prefix it.
			exp, err := call[*ccam.Result](ctx, p, wire.OpQuery, wire.QueryRequest{Query: "EXPLAIN " + stmts[0], Explain: true})
			if err != nil || !exp.Explain {
				t.Fatalf("prefixed explain = %+v, %v", exp, err)
			}
		})
	}
}

// TestQueryErrorsBothProtocols asserts the query-language error family
// survives both protocols with the right codes and HTTP statuses.
func TestQueryErrorsBothProtocols(t *testing.T) {
	st, _ := testStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})
	ctx := context.Background()

	cases := []struct {
		stmt     string
		sentinel error
	}{
		{"SELECT * FROM t", ccam.ErrQueryParse},
		{"NEIGHBORS 1 DEPTH 1 AGG SUM(nodes)", ccam.ErrQueryUnsupported},
		{"FIND 4000000000", ccam.ErrNotFound},
	}
	for _, p := range protocols(t, binAddr, httpBase) {
		t.Run(p.name, func(t *testing.T) {
			for _, tc := range cases {
				if _, err := call[*ccam.Result](ctx, p, wire.OpQuery, wire.QueryRequest{Query: tc.stmt}); !errors.Is(err, tc.sentinel) {
					t.Errorf("Query(%s) = %v, want %v", tc.stmt, err, tc.sentinel)
				}
			}
		})
	}

	// Raw status check: a parse error is a client error (400), not a
	// server failure.
	resp, err := http.Post(httpBase+"/v1/query", "application/json",
		reqBody(`{"query":"SELECT 1"}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("parse error status = %d, want 400", resp.StatusCode)
	}
}
