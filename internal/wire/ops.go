package wire

import (
	"context"
	"encoding/json"
	"fmt"
	"math"

	"ccam"
)

// The op table. Every operation of the served store is one row of
// opTable, indexed by its Op code, and the row holds all the op is apart
// from framing:
//
//   - its name: the trace and log label, and — dashes made underscores —
//     the name of its ccam_server_op_<name>_* series;
//   - its JSON endpoint and the reply field that carries its result;
//   - its request type, the JSON request struct, which the binary
//     decoder fills too, and its reply type;
//   - the binary codecs of request and reply body;
//   - the store call.
//
// internal/server renders the table twice — the binary dispatch is one
// row lookup (Op.Row), the JSON mux one loop over the rows — and Call
// renders it as the binary client.

// OpInfo is what a row says about its op apart from its types.
type OpInfo struct {
	// Name labels the op in traces and logs; with dashes made
	// underscores it names the op's ccam_server_op_<name>_* series.
	Name string
	// Path is the op's JSON endpoint ("" for none) and Field the reply
	// field that carries its result.
	Path, Field string
	// Inline is the longest request body cheap enough for a server to
	// run on the connection's own goroutine (negative: none is).
	Inline int
}

// Info returns the row's OpInfo.
func (i OpInfo) Info() OpInfo { return i }

// OpRow is one row of the op table with its types hidden: what a server
// needs to serve the op over either protocol.
type OpRow interface {
	Info() OpInfo
	// ServeBinary decodes a binary request body, runs the op on st and
	// appends the success reply to frame: the header for request id —
	// with stats, when non-nil, as the op left them — then the body.
	ServeBinary(ctx context.Context, st *ccam.Store, body, frame []byte, id uint32, stats *ccam.ReqStats) ([]byte, error)
	// ServeJSON decodes a JSON request body, runs the op on st and
	// returns the value of the reply's field.
	ServeJSON(ctx context.Context, st *ccam.Store, body []byte) (any, error)
}

// Row returns o's row of the op table, nil for a code no op has.
func (o Op) Row() OpRow {
	if int(o) < len(opTable) {
		return opTable[o]
	}
	return nil
}

// String names the op for errors and traces.
func (o Op) String() string {
	if r := o.Row(); r != nil {
		return r.Info().Name
	}
	return fmt.Sprintf("op(%d)", uint8(o))
}

// row is the table row of an op that takes a Req and answers a Resp.
type row[Req, Resp any] struct {
	OpInfo
	req  reqCodec[Req]
	resp replyCodec[Resp]
	run  func(context.Context, *ccam.Store, Req) (Resp, error)
}

func (r *row[Req, Resp]) ServeBinary(ctx context.Context, st *ccam.Store, body, frame []byte, id uint32, stats *ccam.ReqStats) ([]byte, error) {
	req, err := r.req.decode(body)
	if err != nil {
		return frame, err
	}
	resp, err := r.run(ctx, st, req)
	if err != nil {
		return frame, err
	}
	return r.resp.append(AppendResponseHeader(frame, id, CodeOK, stats), resp)
}

func (r *row[Req, Resp]) ServeJSON(ctx context.Context, st *ccam.Store, body []byte) (any, error) {
	var req Req
	if err := json.Unmarshal(body, &req); err != nil {
		return nil, RemoteError(CodeBadRequest, "invalid JSON: "+err.Error())
	}
	resp, err := r.run(ctx, st, req)
	if err != nil {
		return nil, err
	}
	return r.resp.json(resp), nil
}

// Call runs op on the server behind c. Req and Resp are the op's request
// and reply types as its row declares them; other types panic.
func Call[Resp, Req any](ctx context.Context, c *Client, op Op, req Req) (Resp, error) {
	r := op.Row().(*row[Req, Resp])
	var resp Resp
	body, err := r.req.encode(req)
	if err != nil {
		return resp, err
	}
	if body, err = c.call(ctx, op, body); err != nil {
		return resp, err
	}
	return r.resp.decode(body)
}

// reqCodec is a request type's binary body.
type reqCodec[T any] struct {
	encode func(T) ([]byte, error)
	decode func([]byte) (T, error)
}

// replyCodec is a reply type's binary body and its JSON field value.
type replyCodec[T any] struct {
	append func([]byte, T) ([]byte, error)
	decode func([]byte) (T, error)
	json   func(T) any
}

// codec is the replyCodec of a type whose body always encodes.
func codec[T, J any](app func([]byte, T) []byte, dec func([]byte) (T, error), js func(T) J) replyCodec[T] {
	return replyCodec[T]{
		append: func(b []byte, v T) ([]byte, error) { return app(b, v), nil },
		decode: dec,
		json:   func(v T) any { return js(v) },
	}
}

// same is the JSON form of a type that marshals as it is.
func same[T any](v T) T { return v }

// each converts a slice element by element.
func each[T, J any](f func(T) J) func([]T) []J {
	return func(vs []T) []J {
		out := make([]J, len(vs))
		for i, v := range vs {
			out[i] = f(v)
		}
		return out
	}
}

// decodeIDList decodes an id-list body that must hold nothing else.
func decodeIDList(b []byte, what string) ([]ccam.NodeID, error) {
	ids, rest, err := DecodeIDsBody(b)
	if err == nil && len(rest) != 0 {
		err = RemoteError(CodeBadRequest, "trailing bytes after "+what)
	}
	return ids, err
}

var (
	noBody = reqCodec[struct{}]{
		encode: func(struct{}) ([]byte, error) { return nil, nil },
		decode: func([]byte) (struct{}, error) { return struct{}{}, nil },
	}
	idBody = reqCodec[IDRequest]{
		encode: func(r IDRequest) ([]byte, error) { return EncodeIDBody(r.ID), nil },
		decode: func(b []byte) (IDRequest, error) {
			id, err := DecodeIDBody(b)
			return IDRequest{id}, err
		},
	}
	routeBody = reqCodec[RouteRequest]{
		encode: func(r RouteRequest) ([]byte, error) { return EncodeIDsBody(r.Route), nil },
		decode: func(b []byte) (RouteRequest, error) {
			ids, err := decodeIDList(b, "route")
			return RouteRequest{ids}, err
		},
	}
	batchBody = reqCodec[FindBatchRequest]{
		encode: func(r FindBatchRequest) ([]byte, error) { return EncodeIDsBody(r.IDs), nil },
		decode: func(b []byte) (FindBatchRequest, error) {
			ids, err := decodeIDList(b, "ids")
			return FindBatchRequest{ids}, err
		},
	}
	rectBody = reqCodec[RangeRequest]{
		encode: func(r RangeRequest) ([]byte, error) { return EncodeRectBody(r.Rect), nil },
		decode: func(b []byte) (RangeRequest, error) {
			rect, err := DecodeRectBody(b)
			return RangeRequest{rect}, err
		},
	}
	routesBody = reqCodec[RoutesRequest]{
		encode: func(r RoutesRequest) ([]byte, error) { return EncodeRoutesBody(r.Routes), nil },
		decode: func(b []byte) (RoutesRequest, error) {
			routes, err := DecodeRoutesBody(b)
			return RoutesRequest{routes}, err
		},
	}
	applyBody = reqCodec[ApplyRequest]{
		encode: func(r ApplyRequest) ([]byte, error) { return EncodeApplyBody(r.Ops) },
		decode: func(b []byte) (ApplyRequest, error) {
			ops, err := DecodeApplyBody(b)
			return ApplyRequest{ops}, err
		},
	}
	queryBody = reqCodec[QueryRequest]{
		encode: func(r QueryRequest) ([]byte, error) { return EncodeQueryBody(r.Query, r.Explain), nil },
		decode: func(b []byte) (QueryRequest, error) {
			src, explain, err := DecodeQueryBody(b)
			return QueryRequest{src, explain}, err
		},
	}

	noReply = codec(func(b []byte, _ struct{}) []byte { return b },
		func([]byte) (struct{}, error) { return struct{}{}, nil }, same[struct{}])
	recordReply  = codec(AppendRecordBody, DecodeRecordBody, RecordToJSON)
	recordsReply = codec(AppendRecordsBody, DecodeRecordsBody, each(RecordToJSON))
	hasReply     = codec(AppendBoolBody, DecodeBoolBody, same[bool])
	aggReply     = codec(AppendAggBody, DecodeAggBody, AggregateToJSON)
	aggsReply    = codec(func(b []byte, aggs []ccam.RouteAggregate) []byte {
		return append(b, EncodeAggsBody(aggs)...)
	}, DecodeAggsBody, each(AggregateToJSON))
	appliedReply = codec(func(b []byte, n int) []byte { return appendUint32(b, uint32(n)) },
		func(b []byte) (int, error) {
			n, err := DecodeUint32Body(b)
			return int(n), err
		}, same[int])
	resultReply = replyCodec[*ccam.Result]{
		append: func(b []byte, res *ccam.Result) ([]byte, error) {
			out, err := EncodeResultBody(res)
			return append(b, out...), err
		},
		decode: DecodeResultBody,
		json:   func(res *ccam.Result) any { return res },
	}
)

const (
	// anyBody is the Inline bound of an op every request of which is
	// cheap: one record, or one node's successors.
	anyBody = math.MaxInt
	// handOff is the Inline bound of an op whose requests can run long.
	handOff = -1
	// inlineRouteMax is the longest route run inline: a route touches at
	// most this many records.
	inlineRouteMax = 64
)

// opTable is the op table, indexed by Op.
var opTable = [NumOps]OpRow{
	OpPing: &row[struct{}, struct{}]{
		OpInfo{"ping", "", "", anyBody}, noBody, noReply,
		func(ctx context.Context, _ *ccam.Store, _ struct{}) (struct{}, error) {
			return struct{}{}, ctx.Err()
		}},
	OpFind: &row[IDRequest, *ccam.Record]{
		OpInfo{"find", "/v1/find", "record", anyBody}, idBody, recordReply,
		func(ctx context.Context, st *ccam.Store, r IDRequest) (*ccam.Record, error) {
			return st.Find(ctx, r.ID)
		}},
	OpGetSuccessors: &row[IDRequest, []*ccam.Record]{
		OpInfo{"get-successors", "/v1/successors", "records", anyBody}, idBody, recordsReply,
		func(ctx context.Context, st *ccam.Store, r IDRequest) ([]*ccam.Record, error) {
			return st.GetSuccessors(ctx, r.ID)
		}},
	OpEvaluateRoute: &row[RouteRequest, ccam.RouteAggregate]{
		OpInfo{"evaluate-route", "/v1/route", "aggregate", 4 + 4*inlineRouteMax}, routeBody, aggReply,
		func(ctx context.Context, st *ccam.Store, r RouteRequest) (ccam.RouteAggregate, error) {
			return st.EvaluateRoute(ctx, r.Route)
		}},
	OpRangeQuery: &row[RangeRequest, []*ccam.Record]{
		OpInfo{"range-query", "/v1/range", "records", handOff}, rectBody, recordsReply,
		func(ctx context.Context, st *ccam.Store, r RangeRequest) ([]*ccam.Record, error) {
			return st.RangeQuery(ctx, r.Rect)
		}},
	OpHas: &row[IDRequest, bool]{
		OpInfo{"has", "/v1/has", "has", anyBody}, idBody, hasReply,
		func(ctx context.Context, st *ccam.Store, r IDRequest) (bool, error) {
			return st.Has(ctx, r.ID)
		}},
	OpFindBatch: &row[FindBatchRequest, []*ccam.Record]{
		OpInfo{"find-batch", "/v1/find-batch", "records", handOff}, batchBody, recordsReply,
		func(ctx context.Context, st *ccam.Store, r FindBatchRequest) ([]*ccam.Record, error) {
			return st.FindBatch(ctx, r.IDs)
		}},
	OpEvaluateRoutes: &row[RoutesRequest, []ccam.RouteAggregate]{
		OpInfo{"evaluate-routes", "/v1/routes", "aggregates", handOff}, routesBody, aggsReply,
		func(ctx context.Context, st *ccam.Store, r RoutesRequest) ([]ccam.RouteAggregate, error) {
			return st.EvaluateRoutes(ctx, r.Routes)
		}},
	OpApply: &row[ApplyRequest, int]{
		OpInfo{"apply", "/v1/apply", "applied", handOff}, applyBody, appliedReply,
		func(ctx context.Context, st *ccam.Store, r ApplyRequest) (int, error) {
			b, err := r.Batch()
			if err != nil {
				return 0, err
			}
			return b.Len(), st.Apply(ctx, b)
		}},
	OpQuery: &row[QueryRequest, *ccam.Result]{
		OpInfo{"query", "/v1/query", "result", handOff}, queryBody, resultReply,
		func(ctx context.Context, st *ccam.Store, r QueryRequest) (*ccam.Result, error) {
			if r.Explain {
				r.Query = ccam.ExplainStatement(r.Query)
			}
			return st.Query(ctx, r.Query)
		}},
}
