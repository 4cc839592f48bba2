package wire

import (
	"bytes"
	"encoding/json"
	"errors"
	"testing"

	"ccam"
)

// FuzzDecodeRequestHeader: any payload either is refused with
// ErrBadRequest — keeping the request id whenever its four bytes are
// there — or decodes to a header that re-encodes to an equal header and
// the same body.
func FuzzDecodeRequestHeader(f *testing.F) {
	f.Add(EncodeRequest(7, OpFind, 250, EncodeIDBody(9)))
	f.Add(EncodeRequestHeader(ReqHeader{ID: 8, Op: OpQuery, TraceID: 0xABCD, Sampled: true, WantStats: true},
		EncodeQueryBody("FIND 1", false)))
	f.Add([]byte{1, 0, 0, 0, byte(OpFind) | opExtFlag, 0, 0, 0, 0, 3}) // extended header cut short
	f.Add([]byte{1, 0, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		h, body, err := DecodeRequestHeader(payload)
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal %v does not wrap ErrBadRequest", err)
			}
			if len(payload) >= 4 && h.ID != uint32(payload[0])|uint32(payload[1])<<8|uint32(payload[2])<<16|uint32(payload[3])<<24 {
				t.Fatalf("refused payload % x lost its request id: %+v", payload, h)
			}
			return
		}
		h2, body2, err := DecodeRequestHeader(EncodeRequestHeader(h, body))
		if err != nil || h2 != h || !bytes.Equal(body2, body) {
			t.Fatalf("header %+v re-encoded to %+v (body %x -> %x, err %v)", h, h2, body, body2, err)
		}
	})
}

// FuzzDecodeResponseStats: any payload decodes without a panic, and
// what decodes survives a re-encoding — body and stats of a success,
// code and message of an error.
func FuzzDecodeResponseStats(f *testing.F) {
	rs := &ccam.ReqStats{DataReads: 2, IndexPages: 1, BufferHits: 1, BufferMisses: 2, Ops: 1}
	f.Add(EncodeOKResponse(7, AppendBoolBody(nil, true)))
	f.Add(EncodeOKResponseStats(7, EncodeUint32Body(3), rs))
	f.Add(EncodeErrResponse(7, ccam.ErrNotFound))
	f.Add(EncodeErrResponseStats(7, ccam.ErrOverloaded, &ccam.ReqStats{Shed: true}))
	f.Add([]byte{7, 0, 0, 0, respStatsFlag, 40, 0})
	f.Fuzz(func(t *testing.T, payload []byte) {
		id, body, stats, err := DecodeResponseStats(payload)
		var again []byte
		switch {
		case err == nil:
			again = EncodeOKResponseStats(id, body, stats)
		case !isRemote(err):
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal %v does not wrap ErrBadRequest", err)
			}
			return
		default:
			again = EncodeErrResponseStats(id, err, stats)
		}
		id2, body2, stats2, err2 := DecodeResponseStats(again)
		if id2 != id || !bytes.Equal(body2, body) || (stats == nil) != (stats2 == nil) || (stats != nil && *stats != *stats2) {
			t.Fatalf("response (%d, %x, %+v) re-encoded to (%d, %x, %+v)", id, body, stats, id2, body2, stats2)
		}
		if CodeOf(err2) != CodeOf(err) {
			t.Fatalf("error %v re-encoded to %v", err, err2)
		}
	})
}

// isRemote reports whether err is a decoded non-OK response rather than
// a refusal of the payload itself.
func isRemote(err error) bool {
	var re *Error
	return errors.As(err, &re)
}

// FuzzApplyRequest: any JSON body that decodes into an ApplyRequest
// converts without a panic, either to a batch of one op per request op
// or to a refusal wrapping ErrBadRequest with no batch.
func FuzzApplyRequest(f *testing.F) {
	f.Add([]byte(`{"ops":[{"kind":"set-edge-cost","from":1,"to":2,"cost":3.5}]}`))
	f.Add([]byte(`{"ops":[{"kind":"insert-node","policy":"second-order","node":{"id":9,"x":1,"y":2,"succs":[{"to":1,"cost":2}],"preds":[3]},"pred_costs":[4]}]}`))
	f.Add([]byte(`{"ops":[{"kind":"delete-node","id":4,"policy":"lazy"},{"kind":"insert-edge","from":1,"to":2},{"kind":"delete-edge","from":2,"to":1}]}`))
	f.Add([]byte(`{"ops":[{"kind":"insert-node"}]}`))
	f.Add([]byte(`{"ops":[{"kind":"delete-node","policy":"sideways"}]}`))
	f.Add([]byte(`{"ops":[{"kind":"rename"}]}`))
	f.Fuzz(func(t *testing.T, body []byte) {
		var req ApplyRequest
		if json.Unmarshal(body, &req) != nil {
			return
		}
		b, err := req.Batch()
		if err != nil {
			if b != nil || !errors.Is(err, ErrBadRequest) {
				t.Fatalf("refusal (%v) returned batch %v or does not wrap ErrBadRequest", err, b)
			}
			return
		}
		if b.Len() != len(req.Ops) {
			t.Fatalf("%d ops became a batch of %d", len(req.Ops), b.Len())
		}
	})
}

// bodyCodecs are the body decoders FuzzDecodeBodies drives, each paired
// with its encoder: again decodes a body and re-encodes what decoded.
// A decode failure is returned; an encoder refusing a decoded value
// fails the test.
var bodyCodecs = []struct {
	name  string
	again func(t *testing.T, b []byte) ([]byte, error)
}{
	{"rect", func(_ *testing.T, b []byte) ([]byte, error) {
		r, err := DecodeRectBody(b)
		if err != nil {
			return nil, err
		}
		return EncodeRectBody(r), nil
	}},
	{"records", func(_ *testing.T, b []byte) ([]byte, error) {
		recs, err := DecodeRecordsBody(b)
		if err != nil {
			return nil, err
		}
		return AppendRecordsBody(nil, recs), nil
	}},
	{"routes", func(_ *testing.T, b []byte) ([]byte, error) {
		routes, err := DecodeRoutesBody(b)
		if err != nil {
			return nil, err
		}
		return EncodeRoutesBody(routes), nil
	}},
	{"apply", func(t *testing.T, b []byte) ([]byte, error) {
		ops, err := DecodeApplyBody(b)
		if err != nil {
			return nil, err
		}
		out, err := EncodeApplyBody(ops)
		if err != nil {
			t.Fatalf("decoded ops %+v do not re-encode: %v", ops, err)
		}
		return out, nil
	}},
	{"query", func(_ *testing.T, b []byte) ([]byte, error) {
		src, explain, err := DecodeQueryBody(b)
		if err != nil {
			return nil, err
		}
		return EncodeQueryBody(src, explain), nil
	}},
	{"result", func(t *testing.T, b []byte) ([]byte, error) {
		res, err := DecodeResultBody(b)
		if err != nil {
			return nil, err
		}
		out, err := EncodeResultBody(res)
		if err != nil {
			t.Fatalf("decoded result %+v does not re-encode: %v", res, err)
		}
		return out, nil
	}},
}

// FuzzDecodeBodies: the first byte picks one of the request and response
// body decoders of bodyCodecs, the rest is the body. No decoder panics; a
// body refused is refused with ErrBadRequest; a body that decodes
// re-encodes to bytes that decode and re-encode to the same bytes.
func FuzzDecodeBodies(f *testing.F) {
	rj := RecordToJSON(testRecord())
	apply, err := EncodeApplyBody([]ApplyOp{
		{Kind: OpInsertNode, Policy: "second-order", Node: &rj, PredCosts: []float32{2.5}},
		{Kind: OpDeleteNode, Policy: "lazy", ID: 4},
		{Kind: OpSetEdgeCost, From: 1, To: 2, Cost: 0.5, Policy: "first-order"},
	})
	if err != nil {
		f.Fatal(err)
	}
	result, err := EncodeResultBody(&ccam.Result{Stmt: "FIND 7", Kind: "find", Count: 1,
		Nodes: []ccam.NodeResult{{ID: 7, X: 1.5, Y: -2.25}}})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [][]byte{
		EncodeRectBody(ccam.NewRect(ccam.Point{X: -1, Y: 2}, ccam.Point{X: 3, Y: 4.5})),
		AppendRecordsBody(nil, []*ccam.Record{testRecord(), {ID: 2, Pos: ccam.Point{X: 4, Y: 4}}}),
		EncodeRoutesBody([]ccam.Route{{1, 2, 3}, {9}}),
		apply,
		EncodeQueryBody("WINDOW (0, 0, 10, 10)", true),
		result,
	}
	for sel, body := range seeds {
		f.Add(append([]byte{byte(sel)}, body...))
	}
	f.Fuzz(func(t *testing.T, in []byte) {
		if len(in) == 0 {
			return
		}
		c := bodyCodecs[int(in[0])%len(bodyCodecs)]
		once, err := c.again(t, in[1:])
		if err != nil {
			if !errors.Is(err, ErrBadRequest) {
				t.Fatalf("%s: refusal %v does not wrap ErrBadRequest", c.name, err)
			}
			return
		}
		twice, err := c.again(t, once)
		if err != nil || !bytes.Equal(twice, once) {
			t.Fatalf("%s: body %x re-encoded to %x, which re-encodes to %x (%v)", c.name, in[1:], once, twice, err)
		}
	})
}
