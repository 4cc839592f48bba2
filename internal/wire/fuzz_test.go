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
	f.Add(EncodeOKResponse(7, EncodeBoolBody(true)))
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
