package wire

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/hex"
	"encoding/json"
	"errors"
	"io"
	"math"
	"reflect"
	"testing"

	"ccam"
)

// Every exported sentinel a served query can surface, with its
// expected stable code.
var sentinelCases = []struct {
	name string
	err  error
	code Code
}{
	{"not_found", ccam.ErrNotFound, CodeNotFound},
	{"node_exists", ccam.ErrNodeExists, CodeNodeExists},
	{"edge_exists", ccam.ErrEdgeExists, CodeEdgeExists},
	{"edge_missing", ccam.ErrEdgeMissing, CodeEdgeMissing},
	{"canceled", context.Canceled, CodeCanceled},
	{"deadline_exceeded", context.DeadlineExceeded, CodeDeadline},
	{"overloaded", ccam.ErrOverloaded, CodeOverloaded},
	{"closed", ccam.ErrClosed, CodeClosed},
	{"checksum", ccam.ErrChecksum, CodeChecksum},
	{"corrupted", ccam.ErrCorruptedPage, CodeCorrupted},
	{"no_path", ccam.ErrNoPath, CodeNoPath},
	{"invalid_tour", ccam.ErrInvalidTour, CodeInvalidTour},
	{"parse_error", ccam.ErrQueryParse, CodeParse},
	{"unsupported_query", ccam.ErrQueryUnsupported, CodeUnsupported},
	{"bad_request", ErrBadRequest, CodeBadRequest},
	{"internal", ErrInternal, CodeInternal},
}

func TestCodeTable(t *testing.T) {
	for _, tc := range sentinelCases {
		if got := CodeOf(tc.err); got != tc.code {
			t.Errorf("CodeOf(%v) = %v, want %v", tc.err, got, tc.code)
		}
		if got := tc.code.String(); got != tc.name {
			t.Errorf("%v.String() = %q, want %q", tc.code, got, tc.name)
		}
		if got := CodeFromName(tc.name); got != tc.code {
			t.Errorf("CodeFromName(%q) = %v, want %v", tc.name, got, tc.code)
		}
		if st := tc.code.HTTPStatus(); st < 400 || st > 599 {
			t.Errorf("%v.HTTPStatus() = %d, not an error status", tc.code, st)
		}
	}
	if CodeOf(nil) != CodeOK {
		t.Error("CodeOf(nil) != CodeOK")
	}
	if CodeOf(errors.New("mystery")) != CodeInternal {
		t.Error("unknown error did not classify as internal")
	}
	if CodeOK.HTTPStatus() != 200 {
		t.Error("CodeOK status != 200")
	}
	// Wrapped sentinels classify like the sentinel itself.
	wrapped := errors.Join(errors.New("page 7"), ccam.ErrChecksum)
	if CodeOf(wrapped) != CodeChecksum {
		t.Errorf("wrapped checksum error classified as %v", CodeOf(wrapped))
	}
}

// The satellite's core contract: errors.Is against the original
// sentinel survives a client-side decode, on both protocols.
func TestErrorsIsSurvivesRoundTrip(t *testing.T) {
	for _, tc := range sentinelCases {
		// Binary: server encodes the live error, client decodes the frame.
		payload := EncodeErrResponse(42, tc.err)
		id, body, err := DecodeResponse(payload)
		if id != 42 || body != nil || err == nil {
			t.Fatalf("%s: DecodeResponse = (%d, %v, %v)", tc.name, id, body, err)
		}
		if !errors.Is(err, tc.err) {
			t.Errorf("%s: binary round trip lost errors.Is (got %v)", tc.name, err)
		}
		// JSON: server writes the ErrorResponse body, client decodes it.
		raw, merr := json.Marshal(ErrorResponse{Error: ErrorJSON{
			Code:    CodeOf(tc.err).String(),
			Message: tc.err.Error(),
		}})
		if merr != nil {
			t.Fatal(merr)
		}
		jerr := DecodeErrorResponse(raw, CodeOf(tc.err).HTTPStatus())
		if !errors.Is(jerr, tc.err) {
			t.Errorf("%s: JSON round trip lost errors.Is (got %v)", tc.name, jerr)
		}
		// The decoded error also matches the code directly.
		var we *Error
		if !errors.As(err, &we) || we.Code != tc.code {
			t.Errorf("%s: decoded error has code %v, want %v", tc.name, we.Code, tc.code)
		}
	}
}

func TestDecodeErrorResponseMalformed(t *testing.T) {
	err := DecodeErrorResponse([]byte("not json at all"), 500)
	if !errors.Is(err, ErrInternal) {
		t.Fatalf("malformed body decoded to %v, want internal", err)
	}
}

func testRecord() *ccam.Record {
	return &ccam.Record{
		ID:    7,
		Pos:   ccam.Point{X: 1.5, Y: -2.25},
		Attrs: []byte{0xDE, 0xAD},
		Succs: []ccam.SuccEntry{{To: 8, Cost: 3.5}, {To: 9, Cost: 1.25}},
		Preds: []ccam.NodeID{3},
	}
}

func TestFrameRoundTrip(t *testing.T) {
	var buf bytes.Buffer
	req := EncodeRequest(11, OpFind, 250, EncodeIDBody(7))
	if err := WriteFrame(&buf, req); err != nil {
		t.Fatal(err)
	}
	got, err := ReadFrame(&buf)
	if err != nil {
		t.Fatal(err)
	}
	id, op, dl, body, err := DecodeRequest(got)
	if err != nil || id != 11 || op != OpFind || dl != 250 {
		t.Fatalf("DecodeRequest = (%d, %v, %d, _, %v)", id, op, dl, err)
	}
	nid, err := DecodeIDBody(body)
	if err != nil || nid != 7 {
		t.Fatalf("DecodeIDBody = (%d, %v)", nid, err)
	}
}

// The binary request frame is a stable wire contract; pin its exact
// bytes.
func TestGoldenRequestFrame(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteFrame(&buf, EncodeRequest(0x0B, OpFind, 250, EncodeIDBody(7))); err != nil {
		t.Fatal(err)
	}
	const want = "0d000000" + // frame length 13
		"0b000000" + // request id 11
		"01" + // op find
		"fa000000" + // deadline 250ms
		"07000000" // node id 7
	if got := hex.EncodeToString(buf.Bytes()); got != want {
		t.Fatalf("golden frame mismatch:\n got %s\nwant %s", got, want)
	}
}

func TestGoldenResponseFrames(t *testing.T) {
	ok := EncodeOKResponse(0x0B, AppendBoolBody(nil, true))
	if got, want := hex.EncodeToString(ok), "0b000000"+"00"+"01"; got != want {
		t.Fatalf("ok response: got %s want %s", got, want)
	}
	er := EncodeErrResponse(0x0B, ccam.ErrOverloaded)
	wantPrefix := "0b000000" + "07" // id + CodeOverloaded
	if got := hex.EncodeToString(er[:5]); got != wantPrefix {
		t.Fatalf("error response header: got %s want %s", got, wantPrefix)
	}
	if msgLen := binary.LittleEndian.Uint16(er[5:7]); int(msgLen) != len(ccam.ErrOverloaded.Error()) {
		t.Fatalf("error message length %d", msgLen)
	}
}

func TestReadFrameLimits(t *testing.T) {
	var pfx [4]byte
	binary.LittleEndian.PutUint32(pfx[:], MaxFrame+1)
	if _, err := ReadFrame(bytes.NewReader(pfx[:])); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("oversized frame: %v", err)
	}
	if _, err := ReadFrame(bytes.NewReader(nil)); err != io.EOF {
		t.Fatalf("empty stream: %v", err)
	}
	// Announced 8 bytes, delivered 2.
	short := append(binary.LittleEndian.AppendUint32(nil, 8), 1, 2)
	if _, err := ReadFrame(bytes.NewReader(short)); err != io.ErrUnexpectedEOF {
		t.Fatalf("short frame: %v", err)
	}
}

func TestRecordBodyRoundTrip(t *testing.T) {
	rec := testRecord()
	got, err := DecodeRecordBody(EncodeRecordBody(rec))
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, rec) {
		t.Fatalf("record round trip: got %+v want %+v", got, rec)
	}
	recs := []*ccam.Record{rec, {ID: 2, Pos: ccam.Point{X: 4, Y: 4}}}
	got2, err := DecodeRecordsBody(AppendRecordsBody(nil, recs))
	if err != nil {
		t.Fatal(err)
	}
	if len(got2) != 2 || !reflect.DeepEqual(got2[0], recs[0]) || got2[1].ID != 2 {
		t.Fatalf("records round trip: %+v", got2)
	}
}

func TestScalarBodiesRoundTrip(t *testing.T) {
	ids := []ccam.NodeID{1, 99, 7}
	gotIDs, rest, err := DecodeIDsBody(EncodeIDsBody(ids))
	if err != nil || len(rest) != 0 || !reflect.DeepEqual(gotIDs, ids) {
		t.Fatalf("ids: %v rest=%d err=%v", gotIDs, len(rest), err)
	}
	rect := ccam.NewRect(ccam.Point{X: -1, Y: 2}, ccam.Point{X: 3, Y: 4.5})
	gotRect, err := DecodeRectBody(EncodeRectBody(rect))
	if err != nil || gotRect != rect {
		t.Fatalf("rect: %v err=%v", gotRect, err)
	}
	routes := []ccam.Route{{1, 2, 3}, {9}}
	gotRoutes, err := DecodeRoutesBody(EncodeRoutesBody(routes))
	if err != nil || !reflect.DeepEqual(gotRoutes, routes) {
		t.Fatalf("routes: %v err=%v", gotRoutes, err)
	}
	agg := ccam.RouteAggregate{Nodes: 3, TotalCost: 6.5, MinCost: 1, MaxCost: 4}
	gotAgg, err := DecodeAggBody(AppendAggBody(nil, agg))
	if err != nil || gotAgg != agg {
		t.Fatalf("agg: %v err=%v", gotAgg, err)
	}
	aggs := []ccam.RouteAggregate{agg, {Nodes: 1, TotalCost: math.Inf(1)}}
	gotAggs, err := DecodeAggsBody(EncodeAggsBody(aggs))
	if err != nil || !reflect.DeepEqual(gotAggs, aggs) {
		t.Fatalf("aggs: %v err=%v", gotAggs, err)
	}
	v, err := DecodeBoolBody(AppendBoolBody(nil, false))
	if err != nil || v {
		t.Fatalf("bool: %v err=%v", v, err)
	}
	n, err := DecodeUint32Body(EncodeUint32Body(12))
	if err != nil || n != 12 {
		t.Fatalf("uint32: %d err=%v", n, err)
	}
}

func TestApplyBodyRoundTrip(t *testing.T) {
	rj := RecordToJSON(testRecord())
	ops := []ApplyOp{
		{Kind: OpInsertNode, Policy: "second-order", Node: &rj, PredCosts: []float32{2.5}},
		{Kind: OpDeleteNode, Policy: "lazy", ID: 4},
		{Kind: OpInsertEdge, From: 1, To: 2, Cost: 9.5, Policy: "higher-order"},
		{Kind: OpDeleteEdge, From: 2, To: 1, Policy: "first-order"},
		{Kind: OpSetEdgeCost, From: 1, To: 2, Cost: 0.5, Policy: "first-order"},
	}
	body, err := EncodeApplyBody(ops)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeApplyBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, ops) {
		t.Fatalf("apply round trip:\n got %+v\nwant %+v", got, ops)
	}
	// The decoded ops build a batch with every op intact.
	b, err := (&ApplyRequest{Ops: got}).Batch()
	if err != nil {
		t.Fatal(err)
	}
	if b.Len() != len(ops) {
		t.Fatalf("batch len %d, want %d", b.Len(), len(ops))
	}
	if _, err := EncodeApplyBody([]ApplyOp{{Kind: "explode"}}); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("unknown kind: %v", err)
	}
}

func TestApplyRequestBatchErrors(t *testing.T) {
	cases := []ApplyOp{
		{Kind: OpInsertNode}, // nil node
		{Kind: "mystery"},
		{Kind: OpDeleteNode, Policy: "third-order"},
	}
	for _, op := range cases {
		if _, err := (&ApplyRequest{Ops: []ApplyOp{op}}).Batch(); !errors.Is(err, ErrBadRequest) {
			t.Errorf("op %+v: err = %v, want bad request", op, err)
		}
	}
}

func TestRecordJSONRoundTrip(t *testing.T) {
	rec := testRecord()
	raw, err := json.Marshal(RecordToJSON(rec))
	if err != nil {
		t.Fatal(err)
	}
	var rj RecordJSON
	if err := json.Unmarshal(raw, &rj); err != nil {
		t.Fatal(err)
	}
	if got := rj.Record(); !reflect.DeepEqual(got, rec) {
		t.Fatalf("json record round trip: got %+v want %+v", got, rec)
	}
}

func TestQueryBodyRoundTrip(t *testing.T) {
	for _, explain := range []bool{false, true} {
		body := EncodeQueryBody("FIND 7", explain)
		src, exp, err := DecodeQueryBody(body)
		if err != nil || src != "FIND 7" || exp != explain {
			t.Fatalf("query body (explain=%v): %q %v %v", explain, src, exp, err)
		}
	}
	if _, _, err := DecodeQueryBody(nil); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("empty query body: %v", err)
	}
}

func TestResultBodyRoundTrip(t *testing.T) {
	res := &ccam.Result{
		Stmt:  "FIND 7",
		Kind:  "find",
		Count: 1,
		Nodes: []ccam.NodeResult{{ID: 7, X: 1.5, Y: -2.25}},
	}
	body, err := EncodeResultBody(res)
	if err != nil {
		t.Fatal(err)
	}
	got, err := DecodeResultBody(body)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, res) {
		t.Fatalf("result round trip:\n got %+v\nwant %+v", got, res)
	}
	if _, err := DecodeResultBody([]byte("{")); !errors.Is(err, ErrBadRequest) {
		t.Fatalf("malformed result body: %v", err)
	}
}

// The window type is shared: a RangeRequest's rect travels in the same
// {"min_x":...} shape the CCAM-QL layer and geom package use.
func TestRangeRequestRectJSON(t *testing.T) {
	req := RangeRequest{Rect: ccam.NewRect(ccam.Point{X: 1, Y: 2}, ccam.Point{X: 3, Y: 4})}
	raw, err := json.Marshal(req)
	if err != nil {
		t.Fatal(err)
	}
	want := `{"rect":{"min_x":1,"min_y":2,"max_x":3,"max_y":4}}`
	if string(raw) != want {
		t.Fatalf("RangeRequest JSON = %s, want %s", raw, want)
	}
	var back RangeRequest
	if err := json.Unmarshal(raw, &back); err != nil {
		t.Fatal(err)
	}
	if back.Rect != req.Rect {
		t.Fatalf("rect round trip = %+v, want %+v", back.Rect, req.Rect)
	}
}
