package server

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"path/filepath"
	"reflect"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"ccam"
	"ccam/internal/graph"
	"ccam/internal/wire"
)

func testNetwork(t testing.TB) *ccam.Network {
	t.Helper()
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 12, 12
	g, err := graph.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func testStore(t testing.TB) (*ccam.Store, *ccam.Network) {
	t.Helper()
	g := testNetwork(t)
	st, err := ccam.Open(ccam.Options{PageSize: 1024, PoolPages: 64, Seed: 1, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Build(g); err != nil {
		t.Fatal(err)
	}
	return st, g
}

// startServer serves st over both protocols on loopback and returns
// the binary address and the HTTP base URL.
func startServer(t testing.TB, st *ccam.Store, opts Options) (*Server, string, string) {
	t.Helper()
	opts.Store = st
	srv := New(opts)
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(bl)
	hl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	hs := &http.Server{Handler: srv.Handler()}
	go hs.Serve(hl)
	t.Cleanup(func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(ctx)
		srv.Shutdown(ctx)
	})
	return srv, bl.Addr().String(), "http://" + hl.Addr().String()
}

// protocol is one way to reach a test server: its binary client, or —
// bc nil — its JSON endpoints under base.
type protocol struct {
	name string
	bc   *wire.Client
	base string
}

// protocols dials a server startServer started and returns both ways
// to reach it.
func protocols(t *testing.T, binAddr, httpBase string) []protocol {
	t.Helper()
	bc, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { bc.Close() })
	return []protocol{{"binary", bc, ""}, {"json", nil, httpBase}}
}

// call runs op over p; Req and Resp are the op's request and reply
// types.
func call[Resp, Req any](ctx context.Context, p protocol, op wire.Op, req Req) (Resp, error) {
	if p.bc != nil {
		return wire.Call[Resp](ctx, p.bc, op, req)
	}
	return jsonCall[Resp](ctx, p.base, op, req)
}

// jsonCall runs op through its JSON endpoint as the op table renders it:
// the request struct is the body, and the reply's field decodes into
// Resp. A ctx trace id travels as wire.TraceHeader, and the reply's
// stats fill a ctx ReqStats sink.
func jsonCall[Resp, Req any](ctx context.Context, base string, op wire.Op, req Req) (Resp, error) {
	var out Resp
	info := op.Row().Info()
	body, err := json.Marshal(req)
	if err != nil {
		return out, err
	}
	hr, err := http.NewRequestWithContext(ctx, http.MethodPost, base+info.Path, bytes.NewReader(body))
	if err != nil {
		return out, err
	}
	if tid := ccam.TraceIDFrom(ctx); tid != 0 {
		hr.Header.Set(wire.TraceHeader, fmt.Sprintf("%016x", tid))
	}
	resp, err := http.DefaultClient.Do(hr)
	if err != nil {
		if ctx.Err() != nil {
			return out, ctx.Err()
		}
		return out, err
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		return out, err
	}
	if resp.StatusCode != http.StatusOK {
		return out, wire.DecodeErrorResponse(raw, resp.StatusCode)
	}
	var reply map[string]json.RawMessage
	if err := json.Unmarshal(raw, &reply); err != nil {
		return out, err
	}
	if sink := ccam.ReqStatsFrom(ctx); sink != nil && reply["stats"] != nil {
		if err := json.Unmarshal(reply["stats"], sink); err != nil {
			return out, err
		}
	}
	return out, fromJSON(reply[info.Field], &out)
}

// fromJSON decodes a reply field into out, a pointer to the op's reply
// type: records and aggregates through their wire forms, the rest as
// they are.
func fromJSON(raw json.RawMessage, out any) error {
	var err error
	switch p := out.(type) {
	case **ccam.Record:
		var rj wire.RecordJSON
		err = json.Unmarshal(raw, &rj)
		*p = rj.Record()
	case *[]*ccam.Record:
		var rjs []wire.RecordJSON
		err = json.Unmarshal(raw, &rjs)
		for _, rj := range rjs {
			*p = append(*p, rj.Record())
		}
	case *ccam.RouteAggregate:
		var aj wire.AggregateJSON
		err = json.Unmarshal(raw, &aj)
		*p = ccam.RouteAggregate(aj)
	case *[]ccam.RouteAggregate:
		var ajs []wire.AggregateJSON
		err = json.Unmarshal(raw, &ajs)
		for _, aj := range ajs {
			*p = append(*p, ccam.RouteAggregate(aj))
		}
	default:
		err = json.Unmarshal(raw, out)
	}
	return err
}

// TestGoldenBothProtocols compares every remote query against the
// same query run directly on the store, over each protocol.
func TestGoldenBothProtocols(t *testing.T) {
	st, g := testStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})

	ctx := context.Background()
	ids := g.NodeIDs()
	id := ids[len(ids)/2]
	route := ccam.Route{ids[0]}
	for _, e := range g.SuccessorEdges(ids[0]) {
		route = append(route, e.To)
		break
	}
	wantRec, err := st.Find(ctx, id)
	if err != nil {
		t.Fatal(err)
	}
	wantSuccs, _ := st.GetSuccessors(ctx, id)
	wantAgg, err := st.EvaluateRoute(ctx, route)
	if err != nil {
		t.Fatal(err)
	}
	win := ccam.NewRect(wantRec.Pos, ccam.Point{X: wantRec.Pos.X + 500, Y: wantRec.Pos.Y + 500})
	wantRange, _ := st.RangeQuery(ctx, win)
	batchIDs := []ccam.NodeID{ids[0], ids[1], id}
	wantBatch, _ := st.FindBatch(ctx, batchIDs)
	routes := []ccam.Route{route, {id}}
	wantAggs, _ := st.EvaluateRoutes(ctx, routes)

	for _, p := range protocols(t, binAddr, httpBase) {
		t.Run(p.name, func(t *testing.T) {
			rec, err := call[*ccam.Record](ctx, p, wire.OpFind, wire.IDRequest{ID: id})
			if err != nil || !reflect.DeepEqual(rec, wantRec) {
				t.Fatalf("Find = %+v, %v; want %+v", rec, err, wantRec)
			}
			ok, err := call[bool](ctx, p, wire.OpHas, wire.IDRequest{ID: id})
			if err != nil || !ok {
				t.Fatalf("Has = %v, %v", ok, err)
			}
			succs, err := call[[]*ccam.Record](ctx, p, wire.OpGetSuccessors, wire.IDRequest{ID: id})
			if err != nil || !recordsEqual(succs, wantSuccs) {
				t.Fatalf("GetSuccessors: got %d recs, err %v", len(succs), err)
			}
			agg, err := call[ccam.RouteAggregate](ctx, p, wire.OpEvaluateRoute, wire.RouteRequest{Route: route})
			if err != nil || agg != wantAgg {
				t.Fatalf("EvaluateRoute = %+v, %v; want %+v", agg, err, wantAgg)
			}
			got, err := call[[]*ccam.Record](ctx, p, wire.OpRangeQuery, wire.RangeRequest{Rect: win})
			if err != nil || !recordsEqual(got, wantRange) {
				t.Fatalf("RangeQuery: got %d recs, err %v; want %d", len(got), err, len(wantRange))
			}
			batch, err := call[[]*ccam.Record](ctx, p, wire.OpFindBatch, wire.FindBatchRequest{IDs: batchIDs})
			if err != nil || !recordsEqual(batch, wantBatch) {
				t.Fatalf("FindBatch: got %d recs, err %v", len(batch), err)
			}
			aggs, err := call[[]ccam.RouteAggregate](ctx, p, wire.OpEvaluateRoutes, wire.RoutesRequest{Routes: routes})
			if err != nil || !reflect.DeepEqual(aggs, wantAggs) {
				t.Fatalf("EvaluateRoutes = %+v, %v; want %+v", aggs, err, wantAggs)
			}
		})
	}
}

func recordsEqual(a, b []*ccam.Record) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i].ID != b[i].ID || a[i].Pos != b[i].Pos {
			return false
		}
	}
	return true
}

// TestApplyBothProtocols commits one mutation batch per protocol and
// verifies the store state moved.
func TestApplyBothProtocols(t *testing.T) {
	st, g := testStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})
	ctx := context.Background()

	ids := g.NodeIDs()
	from := ids[0]
	var to ccam.NodeID
	var oldCost float32
	for _, e := range g.SuccessorEdges(from) {
		to, oldCost = e.To, float32(e.Cost)
		break
	}

	bc, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	n, err := bc.Apply(ctx, []wire.ApplyOp{
		{Kind: wire.OpSetEdgeCost, From: from, To: to, Cost: oldCost + 10},
	})
	if err != nil || n != 1 {
		t.Fatalf("binary Apply = %d, %v", n, err)
	}
	agg, err := st.EvaluateRoute(ctx, ccam.Route{from, to})
	if err != nil || agg.TotalCost != float64(oldCost+10) {
		t.Fatalf("after binary apply: total %v, err %v; want %v", agg.TotalCost, err, oldCost+10)
	}

	n, err = jsonCall[int](ctx, httpBase, wire.OpApply, wire.ApplyRequest{Ops: []wire.ApplyOp{
		{Kind: wire.OpSetEdgeCost, From: from, To: to, Cost: oldCost},
	}})
	if err != nil || n != 1 {
		t.Fatalf("json Apply = %d, %v", n, err)
	}
	agg, err = st.EvaluateRoute(ctx, ccam.Route{from, to})
	if err != nil || float32(agg.TotalCost) != oldCost {
		t.Fatalf("after json apply: total %v, err %v; want %v", agg.TotalCost, err, oldCost)
	}
}

// TestErrorMappingBothProtocols asserts errors.Is against the store's
// sentinels survives each protocol, and the JSON protocol pairs the
// right HTTP status.
func TestErrorMappingBothProtocols(t *testing.T) {
	st, _ := testStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})
	ctx := context.Background()
	const missing = ccam.NodeID(1 << 30)

	bc, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.Find(ctx, missing); !errors.Is(err, ccam.ErrNotFound) {
		t.Fatalf("binary missing find = %v, want ErrNotFound", err)
	}
	if _, err := jsonCall[*ccam.Record](ctx, httpBase, wire.OpFind, wire.IDRequest{ID: missing}); !errors.Is(err, ccam.ErrNotFound) {
		t.Fatalf("json missing find = %v, want ErrNotFound", err)
	}
	// Raw status check: not_found must surface as 404.
	resp, err := http.Post(httpBase+"/v1/find", "application/json", reqBody(`{"id":1073741824}`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Fatalf("missing find status = %d, want 404", resp.StatusCode)
	}
	// Malformed JSON maps to bad_request/400.
	resp, err = http.Post(httpBase+"/v1/find", "application/json", reqBody(`{`))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("malformed body status = %d, want 400", resp.StatusCode)
	}
}

// TestApplyReservedIDIsBadRequest: an insert of graph.InvalidNodeID,
// which no store can hold, is a client error on both protocols, and
// the daemon keeps serving reads and writes after it.
func TestApplyReservedIDIsBadRequest(t *testing.T) {
	st, g := testStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})
	ctx := context.Background()
	bc, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	e := g.Edges()[0]
	ops := []wire.ApplyOp{{Kind: wire.OpInsertNode, Node: &wire.RecordJSON{ID: graph.InvalidNodeID, Preds: []ccam.NodeID{e.From}}, PredCosts: []float32{1}}}
	if _, err := bc.Apply(ctx, ops); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("binary Apply of the reserved id = %v, want bad_request", err)
	}
	if _, err := jsonCall[int](ctx, httpBase, wire.OpApply, wire.ApplyRequest{Ops: ops}); !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("json Apply of the reserved id = %v, want bad_request", err)
	}
	if n, err := bc.Apply(ctx, []wire.ApplyOp{{Kind: wire.OpSetEdgeCost, From: e.From, To: e.To, Cost: 5}}); err != nil || n != 1 {
		t.Fatalf("Apply after the refused one = %d, %v", n, err)
	}
	if rec, err := bc.Find(ctx, e.From); err != nil || rec.ID != e.From {
		t.Fatalf("Find after the refused Apply = %v, %v", rec, err)
	}
}

func reqBody(s string) *strings.Reader { return strings.NewReader(s) }

// TestCancellationPropagation verifies a client disconnect cancels
// the context of the query running on its behalf, on both protocols.
func TestCancellationPropagation(t *testing.T) {
	st, g := testStore(t)
	entered := make(chan struct{}, 4)
	canceled := make(chan error, 4)
	var hookOn atomic.Bool
	requestHook = func(ctx context.Context) {
		if !hookOn.Load() {
			return
		}
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			canceled <- ctx.Err()
		case <-time.After(10 * time.Second):
			canceled <- errors.New("request context never canceled")
		}
	}
	defer func() { requestHook = nil }()
	_, binAddr, httpBase := startServer(t, st, Options{})
	id := g.NodeIDs()[0]
	hookOn.Store(true)

	t.Run("binary", func(t *testing.T) {
		bc, err := wire.Dial(binAddr)
		if err != nil {
			t.Fatal(err)
		}
		// A request that can run long: the cheap ones run on the
		// connection's reader and are bounded instead (see serveConn).
		go bc.FindBatch(context.Background(), []ccam.NodeID{id})
		<-entered
		bc.Close() // disconnect with the query in flight
		if err := <-canceled; !errors.Is(err, context.Canceled) {
			t.Fatalf("server-side ctx ended with %v, want Canceled", err)
		}
	})

	t.Run("http", func(t *testing.T) {
		ctx, cancel := context.WithCancel(context.Background())
		done := make(chan error, 1)
		go func() {
			_, err := jsonCall[*ccam.Record](ctx, httpBase, wire.OpFind, wire.IDRequest{ID: id})
			done <- err
		}()
		<-entered
		cancel() // aborts the in-flight HTTP request
		if err := <-canceled; !errors.Is(err, context.Canceled) {
			t.Fatalf("server-side ctx ended with %v, want Canceled", err)
		}
		if err := <-done; !errors.Is(err, context.Canceled) {
			t.Fatalf("client got %v, want Canceled", err)
		}
	})
}

// TestAdmissionControl fills the in-flight cap and asserts the
// overflow is shed immediately with ccam.ErrOverloaded.
func TestAdmissionControl(t *testing.T) {
	st, g := testStore(t)
	block := make(chan struct{})
	entered := make(chan struct{}, 8)
	var hookOn atomic.Bool
	requestHook = func(ctx context.Context) {
		if !hookOn.Load() {
			return
		}
		entered <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	defer func() { requestHook = nil }()
	srv, binAddr, httpBase := startServer(t, st, Options{MaxInFlight: 2})
	id := g.NodeIDs()[0]
	hookOn.Store(true)

	// Two requests occupy both slots.
	results := make(chan error, 2)
	for i := 0; i < 2; i++ {
		c, err := wire.Dial(binAddr)
		if err != nil {
			t.Fatal(err)
		}
		defer c.Close()
		go func() {
			_, err := c.Find(context.Background(), id)
			results <- err
		}()
	}
	<-entered
	<-entered

	// Overflow on each protocol sheds with ErrOverloaded, not a queue.
	c3, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c3.Close()
	if _, err := c3.Find(context.Background(), id); !errors.Is(err, ccam.ErrOverloaded) {
		t.Fatalf("binary overflow = %v, want ErrOverloaded", err)
	}
	if _, err := jsonCall[*ccam.Record](context.Background(), httpBase, wire.OpFind, wire.IDRequest{ID: id}); !errors.Is(err, ccam.ErrOverloaded) {
		t.Fatalf("json overflow = %v, want ErrOverloaded", err)
	}

	close(block)
	for i := 0; i < 2; i++ {
		if err := <-results; err != nil {
			t.Fatalf("admitted request failed: %v", err)
		}
	}
	if sheds := srv.Stats().Sheds; sheds != 2 {
		t.Fatalf("shed count = %d, want 2", sheds)
	}
}

// TestGracefulDrain runs the full drain contract on a WAL store:
// in-flight work finishes with its response delivered, new work is
// refused with ccam.ErrClosed, and the checkpoint leaves nothing for
// OpenPath to replay.
func TestGracefulDrain(t *testing.T) {
	g := testNetwork(t)
	path := filepath.Join(t.TempDir(), "net.ccam")
	st, err := ccam.Open(ccam.Options{PageSize: 1024, PoolPages: 64, Seed: 1, Path: path, WAL: true, Metrics: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := st.Build(g); err != nil {
		t.Fatal(err)
	}

	block := make(chan struct{})
	entered := make(chan struct{}, 4)
	var hookOn atomic.Bool
	requestHook = func(ctx context.Context) {
		if !hookOn.Load() {
			return
		}
		select {
		case entered <- struct{}{}:
		default:
		}
		select {
		case <-block:
		case <-time.After(10 * time.Second):
		}
	}
	defer func() { requestHook = nil }()

	srv := New(Options{Store: st})
	bl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	go srv.ServeBinary(bl)

	ctx := context.Background()
	ids := g.NodeIDs()
	from := ids[0]
	var to ccam.NodeID
	var cost float32
	for _, e := range g.SuccessorEdges(from) {
		to, cost = e.To, float32(e.Cost)
		break
	}
	c1, err := wire.Dial(bl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c1.Close()
	// A committed mutation puts real bytes in the WAL before the drain.
	if _, err := c1.Apply(ctx, []wire.ApplyOp{
		{Kind: wire.OpSetEdgeCost, From: from, To: to, Cost: cost + 5},
	}); err != nil {
		t.Fatal(err)
	}

	c2, err := wire.Dial(bl.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c2.Close()

	// One slow query in flight when the drain begins.
	hookOn.Store(true)
	slow := make(chan error, 1)
	go func() {
		_, err := c1.Find(ctx, from)
		slow <- err
	}()
	<-entered
	hookOn.Store(false)

	shutdownDone := make(chan error, 1)
	go func() {
		sctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
		defer cancel()
		shutdownDone <- srv.Shutdown(sctx)
	}()

	// The drain must wait for the in-flight query...
	select {
	case err := <-shutdownDone:
		t.Fatalf("Shutdown returned %v with a request still in flight", err)
	case <-time.After(100 * time.Millisecond):
	}
	// ...while refusing new requests on a live connection.
	if _, err := c2.Find(ctx, from); !errors.Is(err, ccam.ErrClosed) {
		t.Fatalf("request during drain = %v, want ErrClosed", err)
	}

	close(block)
	if err := <-slow; err != nil {
		t.Fatalf("in-flight request lost its response: %v", err)
	}
	if err := <-shutdownDone; err != nil {
		t.Fatalf("Shutdown = %v", err)
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}

	// The drain checkpointed: reopening replays nothing, and the
	// committed mutation is in the data pages.
	r, err := ccam.OpenPath(path, ccam.Options{PoolPages: 64})
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	if ws := r.WALStats(); ws.ReplayedBatches != 0 {
		t.Fatalf("reopen replayed %d batches, want 0 (clean drain)", ws.ReplayedBatches)
	}
	agg, err := r.EvaluateRoute(ctx, ccam.Route{from, to})
	if err != nil || float32(agg.TotalCost) != cost+5 {
		t.Fatalf("reopened route total = %v, %v; want %v", agg.TotalCost, err, cost+5)
	}
}

// TestDeadlinePropagation: a request-carried deadline bounds the
// server-side context.
func TestDeadlinePropagation(t *testing.T) {
	st, g := testStore(t)
	var sawDeadline atomic.Bool
	var hookOn atomic.Bool
	requestHook = func(ctx context.Context) {
		if !hookOn.Load() {
			return
		}
		// Both protocols bound the context before the hook runs.
		_, ok := ctx.Deadline()
		sawDeadline.Store(ok)
	}
	defer func() { requestHook = nil }()
	_, _, httpBase := startServer(t, st, Options{DefaultDeadline: 250 * time.Millisecond})
	hookOn.Store(true)
	if _, err := jsonCall[*ccam.Record](context.Background(), httpBase, wire.OpFind, wire.IDRequest{ID: g.NodeIDs()[0]}); err != nil {
		t.Fatal(err)
	}
	if !sawDeadline.Load() {
		t.Fatal("DefaultDeadline did not bound the request context")
	}
}

// A malformed X-Ccam-Deadline-Ms is refused before admission, as a
// malformed binary header is: the request gets a 400 and is counted
// nowhere. A well-formed one bounds the request's context.
func TestDeadlineHeaderCheckedBeforeAdmission(t *testing.T) {
	st, g := testStore(t)
	var sawDeadline atomic.Bool
	requestHook = func(ctx context.Context) {
		_, ok := ctx.Deadline()
		sawDeadline.Store(ok)
	}
	defer func() { requestHook = nil }()
	srv, _, httpBase := startServer(t, st, Options{})
	post := func(deadline string) int {
		t.Helper()
		req, err := http.NewRequest(http.MethodPost, httpBase+"/v1/find", reqBody(fmt.Sprintf(`{"id":%d}`, g.NodeIDs()[0])))
		if err != nil {
			t.Fatal(err)
		}
		req.Header.Set(DeadlineHeader, deadline)
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		return resp.StatusCode
	}

	if code := post("soon"); code != http.StatusBadRequest {
		t.Fatalf("malformed %s: status %d, want 400", DeadlineHeader, code)
	}
	if stats, find := srv.Stats(), srv.ops[wire.OpFind].reqs.Value(); stats.Requests != 0 || stats.Errors != 0 || find != 0 {
		t.Fatalf("a refused header was counted: requests %d, errors %d, find %d", stats.Requests, stats.Errors, find)
	}
	if code := post("5000"); code != http.StatusOK || !sawDeadline.Load() {
		t.Fatalf("%s: 5000: status %d, deadline seen %v", DeadlineHeader, code, sawDeadline.Load())
	}
}

// Cancelling the context of a binary call in flight returns
// context.Canceled, cancels the request's context on the server (the
// client hangs up to interrupt the read) and leaves the client closed.
func TestClientCancelClosesConnection(t *testing.T) {
	st, g := testStore(t)
	entered := make(chan struct{}, 1)
	canceled := make(chan error, 1)
	requestHook = func(ctx context.Context) {
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			canceled <- ctx.Err()
		case <-time.After(10 * time.Second):
			canceled <- errors.New("request context never canceled")
		}
	}
	defer func() { requestHook = nil }()
	_, binAddr, _ := startServer(t, st, Options{})
	bc, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	id := g.NodeIDs()[0]

	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() {
		// A request that can run long: the cheap ones run on the
		// connection's reader and are bounded instead (see serveConn).
		_, err := bc.FindBatch(ctx, []ccam.NodeID{id})
		done <- err
	}()
	<-entered
	cancel()
	if err := <-done; !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled call returned %v, want Canceled", err)
	}
	if err := <-canceled; !errors.Is(err, context.Canceled) {
		t.Fatalf("server-side ctx ended with %v, want Canceled", err)
	}
	if _, err := bc.Find(context.Background(), id); !errors.Is(err, ccam.ErrClosed) {
		t.Fatalf("call after the cancellation = %v, want ErrClosed", err)
	}
}
