package ccam

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"strings"
	"testing"
)

// TestStoreReadsTakeContext holds the facade to one spelling per
// operation: every exported *Store method takes a context.Context
// first, but for the accessors and lifecycle calls named below, and
// *Snapshot has no method both as X and as XCtx.
func TestStoreReadsTakeContext(t *testing.T) {
	exempt := map[string]string{
		"Name": "accessor", "Len": "accessor", "NumPages": "accessor",
		"Placement": "accessor", "CRR": "accessor", "WCRR": "accessor",
		"IO": "accessor", "WALStats": "accessor", "Metrics": "accessor",
		"Tracer": "accessor", "MetricsHandler": "accessor",
		"PublishExpvar": "accessor",
		"Build":         "lifecycle", "ResetIO": "lifecycle",
		"Checkpoint": "lifecycle", "Close": "lifecycle",
		"Snapshot": "lifecycle", "Verify": "lifecycle", "Poke": "lifecycle",
		"Scan": "takes a context with the rename of the netfile reads",
	}
	ctxType := reflect.TypeOf((*context.Context)(nil)).Elem()
	st := reflect.TypeOf((*Store)(nil))
	seen := map[string]bool{}
	for i := 0; i < st.NumMethod(); i++ {
		m := st.Method(i)
		seen[m.Name] = true
		if _, ok := exempt[m.Name]; ok {
			continue
		}
		// In[0] is the receiver.
		if m.Type.NumIn() < 2 || m.Type.In(1) != ctxType {
			t.Errorf("(*Store).%s%s does not take a context.Context first", m.Name, strings.TrimPrefix(m.Type.String(), "func"))
		}
	}
	for name := range exempt {
		if !seen[name] {
			t.Errorf("the allowlist names %s, which *Store no longer has", name)
		}
	}
	snap := reflect.TypeOf((*Snapshot)(nil))
	for i := 0; i < snap.NumMethod(); i++ {
		name := snap.Method(i).Name
		if base, ok := strings.CutSuffix(name, "Ctx"); ok {
			if _, twin := snap.MethodByName(base); twin {
				t.Errorf("*Snapshot has both %s and %s", base, name)
			}
		}
	}
}

// countdownCtx is a context whose Err turns to context.Canceled once it
// has been asked n times: a query canceled between two of its checks.
type countdownCtx struct {
	context.Context
	n, calls int
}

func (c *countdownCtx) Err() error {
	c.calls++
	if c.calls > c.n {
		return context.Canceled
	}
	return nil
}

// TestLongQueriesCancel cancels the graph searches, the tour and
// route-unit aggregates and Nearest between every two of their context
// checks. Each must return context.Canceled having fetched at most one
// page since the check before (so at most one page after the cancel),
// fetch nothing when canceled before the call, and leave no snapshot
// pinned. Pages fetched are the request's buffer hits plus misses.
func TestLongQueriesCancel(t *testing.T) {
	opts := MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 14, 14
	g, err := RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 1024, PoolPages: 8, Seed: 3, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	ids := g.NodeIDs()
	walks, err := RandomWalkRoutes(g, 1, 40, rand.New(rand.NewSource(4)))
	if err != nil {
		t.Fatal(err)
	}
	var unit [][2]NodeID
	for j := 0; j+1 < len(walks[0]); j++ {
		unit = append(unit, [2]NodeID{walks[0][j], walks[0][j+1]})
	}
	// The searches and the tour run across the map: out from src to the
	// dst with the longest round trip, then back, on many pages.
	src, dst := ids[len(ids)/2], ids[len(ids)/2]
	var tour Route
	for _, id := range ids {
		out, err1 := s.ShortestPath(context.Background(), src, id, 0)
		back, err2 := s.ShortestPath(context.Background(), id, src, 0)
		if id != src && err1 == nil && err2 == nil && len(out.Nodes)+len(back.Nodes)-2 > len(tour) {
			dst, tour = id, append(out.Nodes, back.Nodes[1:len(back.Nodes)-1]...)
		}
	}
	bb := g.Bounds()
	center := Point{X: bb.Min.X + bb.Width()/2, Y: bb.Min.Y + bb.Height()/2}
	for _, tc := range []struct {
		name string
		run  func(ctx context.Context) error
	}{
		{"ShortestPath", func(ctx context.Context) error { _, err := s.ShortestPath(ctx, src, dst, 0); return err }},
		{"ShortestPath A*", func(ctx context.Context) error { _, err := s.ShortestPath(ctx, src, dst, 0.8); return err }},
		{"LocationAllocation", func(ctx context.Context) error {
			_, _, _, err := s.LocationAllocation(ctx, []NodeID{ids[0], ids[len(ids)/2]})
			return err
		}},
		{"EvaluateTour", func(ctx context.Context) error { _, err := s.EvaluateTour(ctx, tour); return err }},
		{"EvaluateRouteUnit", func(ctx context.Context) error { _, err := s.EvaluateRouteUnit(ctx, "u", unit); return err }},
		{"Nearest", func(ctx context.Context) error { _, err := s.Nearest(ctx, center, 40); return err }},
	} {
		// fetches runs the query with a context canceled after n checks
		// and returns the pages it fetched and the checks it made.
		fetches := func(n int) (pages int64, checks int, err error) {
			c := &countdownCtx{Context: context.Background(), n: n}
			var rs ReqStats
			err = tc.run(WithReqStats(c, &rs))
			return rs.BufferHits + rs.BufferMisses, c.calls, err
		}
		total, checks, err := fetches(1 << 30)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		if checks < 3 || total < 3 {
			t.Fatalf("%s: %d checks, %d pages: too short a query to cancel mid-way", tc.name, checks, total)
		}
		t.Logf("%s: %d checks, %d pages", tc.name, checks, total)
		prev := int64(0)
		for n := 0; n < checks; n++ {
			pages, _, err := fetches(n)
			if !errors.Is(err, context.Canceled) {
				t.Fatalf("%s canceled after %d of %d checks: %v, want context.Canceled", tc.name, n, checks, err)
			}
			if n == 0 && pages != 0 {
				t.Errorf("%s canceled before the call fetched %d pages", tc.name, pages)
			}
			if pages > prev+1 {
				t.Errorf("%s canceled after %d checks fetched %d pages, %d more than when canceled one check earlier",
					tc.name, n, pages, pages-prev)
			}
			prev = pages
		}
		if total > prev+1 {
			t.Errorf("%s fetched %d pages after its last check", tc.name, total-prev)
		}
		if n := s.m.File().Pool().ActiveSnapshots(); n != 0 {
			t.Errorf("%s: %d snapshots pinned after the canceled queries", tc.name, n)
		}
	}
}
