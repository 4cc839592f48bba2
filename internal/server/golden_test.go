package server

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccam/internal/wire"
)

// TestGoldenJSONReplies pins the exact status, content type and body of
// every /v1 endpoint on the 12×12 test store, and of the JSON
// protocol's refusals: a missing node (404), a statement that does not
// parse (its message HTML-escaped), an unknown path, a body that is not
// JSON (400) and a GET on a POST endpoint. The transcript is compared
// with testdata/json_replies.golden as a whole; on a mismatch the test
// prints the transcript it got.
func TestGoldenJSONReplies(t *testing.T) {
	st, g := testStore(t)
	_, _, base := startServer(t, st, Options{})
	ids := g.NodeIDs()
	id := ids[len(ids)/2]
	from := ids[0]
	edge := g.SuccessorEdges(from)[0]
	rec, err := st.Find(context.Background(), id)
	if err != nil {
		t.Fatal(err)
	}
	exchanges := []struct{ method, path, header, body string }{
		{"POST", "/v1/find", "", fmt.Sprintf(`{"id":%d}`, id)},
		{"POST", "/v1/find", wire.TraceHeader + ": 000000000000beef", fmt.Sprintf(`{"id":%d}`, id)},
		{"POST", "/v1/has", "", fmt.Sprintf(`{"id":%d}`, id)},
		{"POST", "/v1/successors", "", fmt.Sprintf(`{"id":%d}`, from)},
		{"POST", "/v1/route", "", fmt.Sprintf(`{"route":[%d,%d]}`, from, edge.To)},
		{"POST", "/v1/range", "", fmt.Sprintf(`{"rect":{"min_x":%g,"min_y":%g,"max_x":%g,"max_y":%g}}`,
			rec.Pos.X-150, rec.Pos.Y-150, rec.Pos.X+150, rec.Pos.Y+150)},
		{"POST", "/v1/find-batch", "", fmt.Sprintf(`{"ids":[%d,%d,%d]}`, ids[0], ids[1], id)},
		{"POST", "/v1/routes", "", fmt.Sprintf(`{"routes":[[%d,%d],[%d]]}`, from, edge.To, id)},
		{"POST", "/v1/query", "", fmt.Sprintf(`{"query":"FIND %d"}`, id)},
		{"POST", "/v1/query", "", fmt.Sprintf(`{"query":"NEIGHBORS %d DEPTH 1 AGG SUM(cost)","explain":true}`, id)},
		{"POST", "/v1/apply", "", fmt.Sprintf(`{"ops":[{"kind":"set-edge-cost","from":%d,"to":%d,"cost":%g}]}`,
			from, edge.To, float32(edge.Cost))},
		{"GET", "/v1/info", "", ""},
		{"POST", "/v1/find", "", `{"id":1073741824}`},
		{"POST", "/v1/query", "", `{"query":"FIND <7> & 8"}`},
		{"POST", "/v1/nope", "", `{}`},
		{"POST", "/v1/find", "", `{`},
		{"GET", "/v1/find", "", ""},
	}
	var got strings.Builder
	for _, x := range exchanges {
		req, err := http.NewRequest(x.method, base+x.path, strings.NewReader(x.body))
		if err != nil {
			t.Fatal(err)
		}
		if k, v, ok := strings.Cut(x.header, ": "); ok {
			req.Header.Set(k, v)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatal(err)
		}
		body, err := io.ReadAll(resp.Body)
		resp.Body.Close()
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(&got, "> %s %s [%s] %s\n< %d [%s] [%s]\n%s\n", x.method, x.path, x.header, x.body,
			resp.StatusCode, resp.Header.Get("Content-Type"), resp.Header.Get(wire.TraceHeader), body)
	}
	want, err := os.ReadFile(filepath.Join("testdata", "json_replies.golden"))
	if err != nil {
		t.Fatal(err)
	}
	if got.String() != string(want) {
		t.Fatalf("JSON replies differ from testdata/json_replies.golden; got:\n%s", got.String())
	}
}

// How requests are counted, on both protocols: a JSON and a binary
// request for the same op each add one to its
// ccam_server_op_<name>_total, and an unknown binary op is refused
// under its own request id without touching any per-op series.
func TestRequestsCountedPerOp(t *testing.T) {
	st, g := testStore(t)
	srv, binAddr, httpBase := startServer(t, st, Options{})
	id := g.NodeIDs()[0]
	find := srv.reg.Counter("ccam_server_op_find_total")

	bc, err := wire.Dial(binAddr)
	if err != nil {
		t.Fatal(err)
	}
	defer bc.Close()
	if _, err := bc.Find(context.Background(), id); err != nil {
		t.Fatal(err)
	}
	if n := find.Value(); n != 1 {
		t.Fatalf("after a binary find: ccam_server_op_find_total = %d, want 1", n)
	}
	resp, err := http.Post(httpBase+"/v1/find", "application/json", reqBody(fmt.Sprintf(`{"id":%d}`, id)))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("JSON find: status %d", resp.StatusCode)
	}
	if n := find.Value(); n != 2 {
		t.Fatalf("after a JSON find: ccam_server_op_find_total = %d, want 2", n)
	}

	perOp := func() (n int64) {
		for i := range srv.ops {
			oi := &srv.ops[i]
			n += oi.reqs.Value() + oi.errs.Value() + oi.latency.Snapshot().Count
		}
		return n
	}
	before := perOp()
	conn := dialRaw(t, binAddr)
	if _, err := conn.Write(frame(wire.EncodeRequest(77, wire.Op(0x7f), 0, nil))); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if rid, _, err := wire.DecodeResponse(payload); rid != 77 || !errors.Is(err, wire.ErrBadRequest) {
		t.Fatalf("unknown op answered (id %d, %v), want id 77 and bad_request", rid, err)
	}
	if after := perOp(); after != before {
		t.Fatalf("an unknown op moved the per-op series (%d -> %d)", before, after)
	}
}

// ccam_server_requests_total and ccam_server_errors_total are sums: of
// every op's ccam_server_op_<name>_total (_errors_total) and of the
// requests whose op code has no row, and Stats reads the same sums.
// Clients on several connections run beside a scraper rendering the
// registry (run it under -race).
func TestServerTotalsAreSums(t *testing.T) {
	st, g := testStore(t)
	srv, binAddr, _ := startServer(t, st, Options{})
	ids := g.NodeIDs()
	stop := make(chan struct{})
	var scraper sync.WaitGroup
	scraper.Add(1)
	go func() {
		defer scraper.Done()
		for {
			select {
			case <-stop:
				return
			default:
				srv.reg.WriteTo(io.Discard)
				srv.Stats()
			}
		}
	}()
	const clients, finds = 3, 40
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			bc, err := wire.Dial(binAddr)
			if err != nil {
				t.Error(err)
				return
			}
			defer bc.Close()
			for i := 0; i < finds; i++ {
				if _, err := bc.Find(context.Background(), ids[i%len(ids)]); err != nil {
					t.Error(err)
					return
				}
			}
			if _, err := bc.Find(context.Background(), 1<<30); err == nil {
				t.Error("a find of a missing node succeeded")
			}
		}()
	}
	wg.Wait()
	conn := dialRaw(t, binAddr)
	for i := uint32(1); i <= 2; i++ {
		if _, err := conn.Write(frame(wire.EncodeRequest(i, wire.Op(0x7f), 0, nil))); err != nil {
			t.Fatal(err)
		}
		if _, err := wire.ReadFrame(conn); err != nil {
			t.Fatal(err)
		}
	}
	close(stop)
	scraper.Wait()

	var opReqs, opErrs int64
	for i := range srv.ops {
		opReqs += srv.ops[i].reqs.Value()
		opErrs += srv.ops[i].errs.Value()
	}
	reqs := srv.reg.Counter("ccam_server_requests_total").Value()
	errs := srv.reg.Counter("ccam_server_errors_total").Value()
	const wantReqs, wantErrs = clients*(finds+1) + 2, clients + 2
	if reqs != wantReqs || errs != wantErrs {
		t.Fatalf("ccam_server_requests_total = %d, _errors_total = %d, want %d and %d", reqs, errs, wantReqs, wantErrs)
	}
	if opReqs != reqs-2 || opErrs != errs-2 {
		t.Fatalf("per-op series sum to %d requests, %d errors; the totals less the 2 unknown ops are %d, %d", opReqs, opErrs, reqs-2, errs-2)
	}
	if s := srv.Stats(); s.Requests != reqs || s.Errors != errs {
		t.Fatalf("Stats reads %d requests, %d errors; the registry %d, %d", s.Requests, s.Errors, reqs, errs)
	}
}
