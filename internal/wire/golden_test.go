package wire

import (
	"context"
	"encoding/hex"
	"errors"
	"net"
	"reflect"
	"testing"

	"ccam"
)

// exchange runs call on a Client whose peer reads one request frame,
// answers it with reply and hangs up. It returns the request payload
// and what call returned.
func exchange(t *testing.T, ctx context.Context, reply []byte, call func(context.Context, *Client) (any, error)) ([]byte, any, error) {
	t.Helper()
	cc, sc := net.Pipe()
	c := NewClient(cc)
	defer c.Close()
	req := make(chan []byte, 1)
	go func() {
		defer sc.Close()
		p, err := ReadFrame(sc)
		if err == nil {
			err = WriteFrame(sc, reply)
		}
		if err != nil {
			t.Error(err)
		}
		req <- p
	}()
	v, err := call(ctx, c)
	return <-req, v, err
}

// TestGoldenOpFrames pins every op's bytes on the binary wire: the
// request payload the client sends, the reply payload carrying the
// op's body as the server encodes it, an error reply, and the reply
// with a stats block that a want-stats request gets. Each reply also
// goes back through the client, which must decode it to the value (or
// the sentinel, or the account) it was built from.
func TestGoldenOpFrames(t *testing.T) {
	rec := testRecord()
	recs := []*ccam.Record{rec, {ID: 2, Pos: ccam.Point{X: 4, Y: 4}}}
	agg := ccam.RouteAggregate{Nodes: 3, TotalCost: 6.5, MinCost: 1, MaxCost: 4}
	aggs := []ccam.RouteAggregate{agg, {Nodes: 1}}
	res := &ccam.Result{Stmt: "FIND 7", Kind: "find", Count: 1,
		Nodes: []ccam.NodeResult{{ID: 7, X: 1.5, Y: -2.25}}}
	resBody, err := EncodeResultBody(res)
	if err != nil {
		t.Fatal(err)
	}
	rect := ccam.NewRect(ccam.Point{X: -1, Y: 2}, ccam.Point{X: 3, Y: 4.5})
	rs := ccam.ReqStats{DataReads: 1, IndexPages: 2, BufferHits: 3, BufferMisses: 1, Ops: 1}

	cases := []struct {
		op    Op
		call  func(context.Context, *Client) (any, error)
		value any    // what the reply decodes to
		body  []byte // the reply body, as the server encodes it
		err   error  // what the error reply carries
		// want is the hex of the request payload, the reply, the error
		// reply and the reply with a stats block.
		want [4]string
	}{
		{OpPing, func(ctx context.Context, c *Client) (any, error) { return nil, c.Ping(ctx) },
			nil, nil, ccam.ErrClosed, [4]string{
				"010000000000000000",
				"0100000000",
				"010000000815006363616d3a2073746f726520697320636c6f736564",
				"01000000801f0001000000000000000200000003000000010000000000000000000000010000",
			}},
		{OpFind, func(ctx context.Context, c *Client) (any, error) { return c.Find(ctx, 7) },
			rec, EncodeRecordBody(rec), ccam.ErrNotFound, [4]string{
				"01000000010000000007000000",
				"010000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f03000000",
				"010000000117006e657466696c653a206e6f6465206e6f7420666f756e64",
				"01000000801f000100000000000000020000000300000001000000000000000000000001000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f03000000",
			}},
		{OpHas, func(ctx context.Context, c *Client) (any, error) { return c.Has(ctx, 7) },
			true, AppendBoolBody(nil, true), ccam.ErrClosed, [4]string{
				"01000000050000000007000000",
				"010000000001",
				"010000000815006363616d3a2073746f726520697320636c6f736564",
				"01000000801f000100000000000000020000000300000001000000000000000000000001000001",
			}},
		{OpGetSuccessors, func(ctx context.Context, c *Client) (any, error) { return c.GetSuccessors(ctx, 7) },
			recs, AppendRecordsBody(nil, recs), ccam.ErrNotFound, [4]string{
				"01000000020000000007000000",
				"0100000000020000003000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f030000001a0000000200000000000000000010400000000000001040000000000000",
				"010000000117006e657466696c653a206e6f6465206e6f7420666f756e64",
				"01000000801f0001000000000000000200000003000000010000000000000000000000010000020000003000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f030000001a0000000200000000000000000010400000000000001040000000000000",
			}},
		{OpEvaluateRoute, func(ctx context.Context, c *Client) (any, error) { return c.EvaluateRoute(ctx, ccam.Route{1, 2, 3}) },
			agg, AppendAggBody(nil, agg), ccam.ErrEdgeMissing, [4]string{
				"01000000030000000003000000010000000200000003000000",
				"0100000000030000000000000000001a40000000000000f03f0000000000001040",
				"0100000004150067726170683a2065646765206e6f7420666f756e64",
				"01000000801f0001000000000000000200000003000000010000000000000000000000010000030000000000000000001a40000000000000f03f0000000000001040",
			}},
		{OpRangeQuery, func(ctx context.Context, c *Client) (any, error) { return c.RangeQuery(ctx, rect) },
			recs, AppendRecordsBody(nil, recs), ccam.ErrOverloaded, [4]string{
				"010000000400000000000000000000f0bf000000000000004000000000000008400000000000001240",
				"0100000000020000003000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f030000001a0000000200000000000000000010400000000000001040000000000000",
				"010000000717006363616d3a20736572766572206f7665726c6f61646564",
				"01000000801f0001000000000000000200000003000000010000000000000000000000010000020000003000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f030000001a0000000200000000000000000010400000000000001040000000000000",
			}},
		{OpFindBatch, func(ctx context.Context, c *Client) (any, error) { return c.FindBatch(ctx, []ccam.NodeID{7, 2}) },
			recs, AppendRecordsBody(nil, recs), ccam.ErrNotFound, [4]string{
				"010000000600000000020000000700000002000000",
				"0100000000020000003000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f030000001a0000000200000000000000000010400000000000001040000000000000",
				"010000000117006e657466696c653a206e6f6465206e6f7420666f756e64",
				"01000000801f0001000000000000000200000003000000010000000000000000000000010000020000003000000007000000000000000000f83f00000000000002c0020002000100dead0800000000006040090000000000a03f030000001a0000000200000000000000000010400000000000001040000000000000",
			}},
		{OpEvaluateRoutes, func(ctx context.Context, c *Client) (any, error) {
			return c.EvaluateRoutes(ctx, []ccam.Route{{1, 2, 3}, {9}})
		}, aggs, EncodeAggsBody(aggs), context.DeadlineExceeded, [4]string{
			"01000000070000000002000000030000000100000002000000030000000100000009000000",
			"010000000002000000030000000000000000001a40000000000000f03f000000000000104001000000000000000000000000000000000000000000000000000000",
			"01000000061900636f6e7465787420646561646c696e65206578636565646564",
			"01000000801f000100000000000000020000000300000001000000000000000000000001000002000000030000000000000000001a40000000000000f03f000000000000104001000000000000000000000000000000000000000000000000000000",
		}},
		{OpApply, func(ctx context.Context, c *Client) (any, error) {
			return c.Apply(ctx, []ApplyOp{{Kind: OpSetEdgeCost, From: 1, To: 2, Cost: 0.5}})
		}, 1, EncodeUint32Body(1), ccam.ErrEdgeMissing, [4]string{
			"01000000080000000001000000050001000000020000000000003f",
			"010000000001000000",
			"0100000004150067726170683a2065646765206e6f7420666f756e64",
			"01000000801f000100000000000000020000000300000001000000000000000000000001000001000000",
		}},
		{OpQuery, func(ctx context.Context, c *Client) (any, error) { return c.Query(ctx, "FIND 7") },
			res, resBody, ccam.ErrQueryParse, [4]string{
				"0100000009000000000046494e442037",
				"01000000007b2273746d74223a2246494e442037222c226b696e64223a2266696e64222c226e6f646573223a5b7b226964223a372c2278223a312e352c2279223a2d322e32352c227375636373223a307d5d2c22636f756e74223a317d",
				"010000000f13006363616d716c3a207061727365206572726f72",
				"01000000801f00010000000000000002000000030000000100000000000000000000000100007b2273746d74223a2246494e442037222c226b696e64223a2266696e64222c226e6f646573223a5b7b226964223a372c2278223a312e352c2279223a2d322e32352c227375636373223a307d5d2c22636f756e74223a317d",
			}},
	}
	if len(cases) != NumOps {
		t.Fatalf("%d cases for %d ops", len(cases), NumOps)
	}
	ctx := context.Background()
	for _, tc := range cases {
		t.Run(tc.op.String(), func(t *testing.T) {
			reply := EncodeOKResponse(1, tc.body)
			req, v, err := exchange(t, ctx, reply, tc.call)
			if err != nil || !reflect.DeepEqual(v, tc.value) {
				t.Errorf("reply decoded to (%+v, %v), want %+v", v, err, tc.value)
			}
			if _, op, _, _, _ := DecodeRequest(req); op != tc.op {
				t.Errorf("request carries op %v", op)
			}

			errReply := EncodeErrResponse(1, tc.err)
			if _, _, err := exchange(t, ctx, errReply, tc.call); !errors.Is(err, tc.err) {
				t.Errorf("error reply decoded to %v, want %v", err, tc.err)
			}

			statsReply := EncodeOKResponseStats(1, tc.body, &rs)
			var sink ccam.ReqStats
			if _, v, err := exchange(t, ccam.WithReqStats(ctx, &sink), statsReply, tc.call); err != nil || !reflect.DeepEqual(v, tc.value) || sink != rs {
				t.Errorf("stats reply decoded to (%+v, %+v, %v), want %+v and %+v", v, sink, err, tc.value, rs)
			}

			got := [4]string{hex.EncodeToString(req), hex.EncodeToString(reply),
				hex.EncodeToString(errReply), hex.EncodeToString(statsReply)}
			for i, what := range []string{"request", "reply", "error reply", "stats reply"} {
				if got[i] != tc.want[i] {
					t.Errorf("%s:\n got %s\nwant %s", what, got[i], tc.want[i])
				}
			}
		})
	}
}
