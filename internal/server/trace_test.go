package server

import (
	"bytes"
	"context"
	"io"
	"log/slog"
	"net"
	"net/http"
	"strings"
	"sync"
	"testing"
	"time"

	"ccam"
	"ccam/internal/wire"
)

// tracedStore is testStore with the tracer ring enabled, so sampled
// requests leave retrievable traces.
func tracedStore(t *testing.T) (*ccam.Store, []ccam.NodeID) {
	t.Helper()
	g := testNetwork(t)
	st, err := ccam.Open(ccam.Options{
		PageSize: 1024, PoolPages: 64, Seed: 1,
		Metrics: true, TraceCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { st.Close() })
	if err := st.Build(g); err != nil {
		t.Fatal(err)
	}
	return st, g.NodeIDs()
}

// A sampled binary request must get its own resource account back on
// the wire, and its store-side trace must be retrievable from
// /traces?trace=<id>.
func TestSampledBinaryRequestStatsAndTrace(t *testing.T) {
	st, ids := tracedStore(t)
	_, binAddr, httpBase := startServer(t, st, Options{})

	c, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	const traceID = 0xBEEF
	var rs ccam.ReqStats
	ctx := ccam.WithReqStats(ccam.WithTraceID(context.Background(), traceID), &rs)
	if _, err := c.Find(ctx, ids[len(ids)/2]); err != nil {
		t.Fatal(err)
	}
	if rs.Ops != 1 {
		t.Fatalf("ReqStats.Ops = %d, want 1", rs.Ops)
	}
	if rs.BufferHits+rs.BufferMisses == 0 {
		t.Fatalf("sampled find touched no buffer pages: %+v", rs)
	}
	if rs.Shed {
		t.Fatalf("unexpected shed flag: %+v", rs)
	}

	// The same connection without trace context stays v6-quiet: the
	// sink must not be touched.
	before := rs
	if _, err := c.Find(context.Background(), ids[0]); err != nil {
		t.Fatal(err)
	}
	if rs != before {
		t.Fatalf("untraced request mutated the sink: %+v -> %+v", before, rs)
	}

	// The store-side trace is tagged and filterable by the wire id.
	resp, err := http.Get(httpBase + "/traces?trace=beef")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/traces?trace=beef: %d %s", resp.StatusCode, body)
	}
	out := string(body)
	if !strings.Contains(out, "trace=000000000000beef") || !strings.Contains(out, "find") {
		t.Fatalf("/traces?trace=beef missing the sampled find:\n%s", out)
	}
	if strings.Count(out, "#") != 1 {
		t.Fatalf("/traces?trace=beef should hold exactly the one sampled trace:\n%s", out)
	}
}

// The JSON protocol carries the same contract through X-Ccam-Trace and
// the response stats field.
func TestSampledJSONRequestStats(t *testing.T) {
	st, ids := tracedStore(t)
	_, _, httpBase := startServer(t, st, Options{})

	var rs ccam.ReqStats
	ctx := ccam.WithReqStats(ccam.WithTraceID(context.Background(), 0xD00D), &rs)
	if _, err := jsonCall[*ccam.Record](ctx, httpBase, wire.OpFind, wire.IDRequest{ID: ids[len(ids)/2]}); err != nil {
		t.Fatal(err)
	}
	if rs.Ops != 1 || rs.BufferHits+rs.BufferMisses == 0 {
		t.Fatalf("JSON stats field not delivered: %+v", rs)
	}

	// A malformed trace header is rejected, not ignored.
	req, _ := http.NewRequest(http.MethodPost, httpBase+"/v1/has", bytes.NewReader([]byte(`{"id":1}`)))
	req.Header.Set(wire.TraceHeader, "not-hex")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("bad %s accepted: %d", wire.TraceHeader, resp.StatusCode)
	}
}

// syncBuf lets the test read log output while server goroutines write.
type syncBuf struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuf) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuf) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// A request over the slow-query threshold must emit one structured log
// line with op, duration, trace id, resource account and, under spans=,
// what the request's store operation counted ("find <dur> idx=1 hit=…
// miss=… writes=0", then a span per physical read), and count in
// ccam_server_slow_total.
func TestSlowQueryLog(t *testing.T) {
	st, ids := tracedStore(t)
	var buf syncBuf
	logger := slog.New(slog.NewTextHandler(&buf, &slog.HandlerOptions{Level: slog.LevelDebug}))
	srv, binAddr, _ := startServer(t, st, Options{
		Logger:    logger,
		SlowQuery: time.Nanosecond, // every request is slow
	})

	c, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	var rs ccam.ReqStats
	ctx := ccam.WithReqStats(ccam.WithTraceID(context.Background(), 0xFACE), &rs)
	if _, err := c.Find(ctx, ids[len(ids)/2]); err != nil {
		t.Fatal(err)
	}

	// The slow log is written after the response goes out; poll.
	deadline := time.Now().Add(5 * time.Second)
	var out string
	for {
		out = buf.String()
		if strings.Contains(out, "slow query") || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	for _, want := range []string{"slow query", "op=find", "trace=000000000000face", "buffer_", `spans="find `, " idx=1 hit=", " writes=0"} {
		if !strings.Contains(out, want) {
			t.Fatalf("slow-query log missing %q:\n%s", want, out)
		}
	}
	if srv.slow.Value() == 0 {
		t.Fatal("ccam_server_slow_total not incremented")
	}
}

// A raw v6 frame (no extended header) must still be served, and the
// reply must not carry a stats block the old client can't parse.
func TestV6RawFrameStillServed(t *testing.T) {
	st, _ := tracedStore(t)
	_, binAddr, _ := startServer(t, st, Options{})

	conn, err := net.Dial("tcp", binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	if err := wire.WriteFrame(conn, wire.EncodeRequest(42, wire.OpPing, 0, nil)); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if payload[4]&0x80 != 0 {
		t.Fatalf("v6 request answered with a stats-flagged response: % x", payload)
	}
	id, body, err := wire.DecodeResponse(payload)
	if err != nil || id != 42 || len(body) != 0 {
		t.Fatalf("v6 ping reply = (%d, %x, %v)", id, body, err)
	}
}
