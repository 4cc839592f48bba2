package server

import (
	"encoding/binary"
	"errors"
	"net"
	"testing"
	"time"

	"ccam"
	"ccam/internal/wire"
)

// FuzzServeBinary: any request payload, framed and sent down a binary
// connection of a server over the 12×12 test store, is answered — no
// panic, no hang — with one reply that wire.DecodeResponseStats
// decodes. A refusal carries a code of the code table, and the reply
// carries the request's id whenever the payload holds one (4 bytes).
func FuzzServeBinary(f *testing.F) {
	st, g := testStore(f)
	srv := New(Options{Store: st})
	ids := g.NodeIDs()
	apply, err := wire.EncodeApplyBody([]wire.ApplyOp{
		{Kind: wire.OpSetEdgeCost, From: ids[0], To: g.SuccessorEdges(ids[0])[0].To, Cost: 7},
	})
	if err != nil {
		f.Fatal(err)
	}
	seeds := [wire.NumOps][]byte{
		wire.OpPing:           nil,
		wire.OpFind:           wire.EncodeIDBody(ids[1]),
		wire.OpHas:            wire.EncodeIDBody(1 << 30),
		wire.OpGetSuccessors:  wire.EncodeIDBody(ids[2]),
		wire.OpEvaluateRoute:  wire.EncodeIDsBody(ids[:2]),
		wire.OpRangeQuery:     wire.EncodeRectBody(ccam.NewRect(ccam.Point{X: 0, Y: 0}, ccam.Point{X: 900, Y: 900})),
		wire.OpFindBatch:      wire.EncodeIDsBody(ids[:3]),
		wire.OpEvaluateRoutes: wire.EncodeRoutesBody([]ccam.Route{ids[:1], ids[1:2]}),
		wire.OpApply:          apply,
		wire.OpQuery:          wire.EncodeQueryBody("NEIGHBORS 5 DEPTH 2 AGG SUM(cost)", false),
	}
	for op, body := range seeds {
		f.Add(wire.EncodeRequest(uint32(op)+1, wire.Op(op), 0, body))
	}
	f.Add(wire.EncodeRequestHeader(wire.ReqHeader{ID: 99, Op: wire.OpFind, DeadlineMS: 1,
		TraceID: 7, Sampled: true, WantStats: true}, wire.EncodeIDBody(ids[3])))
	f.Add([]byte{1, 2, 3})
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, payload []byte) {
		cc, sc := net.Pipe()
		served := make(chan struct{})
		go func() {
			defer close(served)
			srv.serveConn(sc)
		}()
		defer func() {
			cc.Close()
			<-served
		}()
		cc.SetDeadline(time.Now().Add(10 * time.Second))
		// One write: a pipe holds even an empty write until it is read.
		if _, err := cc.Write(frame(payload)); err != nil {
			t.Fatal(err)
		}
		reply, err := wire.ReadFrame(cc)
		if err != nil {
			t.Fatalf("payload %x: no reply: %v", payload, err)
		}
		id, _, _, err := wire.DecodeResponseStats(reply)
		var refusal *wire.Error
		if err != nil && !errors.As(err, &refusal) {
			t.Fatalf("payload %x: reply %x does not decode: %v", payload, reply, err)
		}
		if refusal != nil && wire.CodeFromName(refusal.Code.String()) != refusal.Code {
			t.Fatalf("payload %x: refused with code %d, which the code table lacks", payload, refusal.Code)
		}
		if len(payload) >= 4 && id != binary.LittleEndian.Uint32(payload) {
			t.Fatalf("payload %x: reply id %d", payload, id)
		}
	})
}
