package server

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"time"

	"ccam"
	"ccam/internal/wire"
)

// DeadlineHeader carries a per-request deadline budget in milliseconds
// on the JSON protocol (the HTTP analogue of the binary header field).
const DeadlineHeader = "X-Ccam-Deadline-Ms"

// Handler builds the JSON-protocol handler: the /v1 query endpoints
// plus the store's observability surface (/metrics, /metrics.json,
// /traces via ccam.ServeMetrics) and /debug/pprof.
func (s *Server) Handler() http.Handler {
	mux := http.NewServeMux()
	ccam.ServeMetrics(mux, s.st)
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)

	mux.HandleFunc("/v1/info", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, wire.InfoResponse{
			Name:        s.st.Name(),
			Nodes:       s.st.Len(),
			Pages:       s.st.NumPages(),
			MaxInFlight: s.maxInFlight,
		})
	})

	handle := func(path string, op wire.Op, fn func(ctx context.Context, body []byte) (any, error)) {
		mux.HandleFunc(path, func(w http.ResponseWriter, r *http.Request) {
			if r.Method != http.MethodPost {
				writeError(w, wire.RemoteError(wire.CodeBadRequest, "POST required"))
				return
			}
			// TraceHeader marks the request sampled and asks for the
			// stats field; the server echoes the id on the response.
			var (
				traceID uint64
				rs      *ccam.ReqStats
			)
			if th := r.Header.Get(wire.TraceHeader); th != "" {
				n, perr := strconv.ParseUint(th, 16, 64)
				if perr != nil || n == 0 {
					writeError(w, wire.RemoteError(wire.CodeBadRequest, "bad "+wire.TraceHeader))
					return
				}
				traceID = n
				w.Header().Set(wire.TraceHeader, fmt.Sprintf("%016x", traceID))
			}
			body, err := io.ReadAll(io.LimitReader(r.Body, wire.MaxFrame+1))
			if err != nil {
				writeError(w, err)
				return
			}
			if len(body) > wire.MaxFrame {
				writeError(w, wire.RemoteError(wire.CodeBadRequest, "request body too large"))
				return
			}
			reqCtx := r.Context()
			if traceID != 0 {
				rs = new(ccam.ReqStats)
				reqCtx = ccam.WithReqStats(ccam.WithTraceID(reqCtx, traceID), rs)
			}
			var out any
			err = s.do(reqCtx, reqMeta{op: op, traceID: traceID, rs: rs}, func(ctx context.Context) error {
				if ms := r.Header.Get(DeadlineHeader); ms != "" {
					n, perr := strconv.ParseUint(ms, 10, 32)
					if perr != nil {
						return wire.RemoteError(wire.CodeBadRequest, "bad "+DeadlineHeader)
					}
					if n > 0 {
						var cancel context.CancelFunc
						ctx, cancel = context.WithTimeout(ctx, time.Duration(n)*time.Millisecond)
						defer cancel()
					}
				}
				var ferr error
				out, ferr = fn(ctx, body)
				return ferr
			})
			if err != nil {
				writeError(w, err)
				return
			}
			if rs != nil {
				if as, ok := out.(interface{ AttachStats(*ccam.ReqStats) }); ok {
					as.AttachStats(rs)
				}
			}
			writeJSON(w, http.StatusOK, out)
		})
	}

	handle("/v1/find", wire.OpFind, func(ctx context.Context, body []byte) (any, error) {
		var req wire.FindRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		rec, err := s.st.Find(ctx, req.ID)
		if err != nil {
			return nil, err
		}
		return &wire.FindResponse{Record: wire.RecordToJSON(rec)}, nil
	})
	handle("/v1/has", wire.OpHas, func(ctx context.Context, body []byte) (any, error) {
		var req wire.HasRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		ok, err := s.st.Has(ctx, req.ID)
		if err != nil {
			return nil, err
		}
		return &wire.HasResponse{Has: ok}, nil
	})
	handle("/v1/successors", wire.OpGetSuccessors, func(ctx context.Context, body []byte) (any, error) {
		var req wire.SuccessorsRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		recs, err := s.st.GetSuccessors(ctx, req.ID)
		if err != nil {
			return nil, err
		}
		return &wire.RecordsResponse{Records: wire.RecordsToJSON(recs)}, nil
	})
	handle("/v1/route", wire.OpEvaluateRoute, func(ctx context.Context, body []byte) (any, error) {
		var req wire.RouteRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		agg, err := s.st.EvaluateRoute(ctx, ccam.Route(req.Route))
		if err != nil {
			return nil, err
		}
		return &wire.RouteResponse{Aggregate: wire.AggregateToJSON(agg)}, nil
	})
	handle("/v1/range", wire.OpRangeQuery, func(ctx context.Context, body []byte) (any, error) {
		var req wire.RangeRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		recs, err := s.st.RangeQuery(ctx, req.Rect)
		if err != nil {
			return nil, err
		}
		return &wire.RecordsResponse{Records: wire.RecordsToJSON(recs)}, nil
	})
	handle("/v1/find-batch", wire.OpFindBatch, func(ctx context.Context, body []byte) (any, error) {
		var req wire.FindBatchRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		recs, err := s.st.FindBatch(ctx, req.IDs)
		if err != nil {
			return nil, err
		}
		return &wire.RecordsResponse{Records: wire.RecordsToJSON(recs)}, nil
	})
	handle("/v1/routes", wire.OpEvaluateRoutes, func(ctx context.Context, body []byte) (any, error) {
		var req wire.RoutesRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		aggs, err := s.st.EvaluateRoutes(ctx, wire.Routes(req.Routes))
		if err != nil {
			return nil, err
		}
		out := make([]wire.AggregateJSON, len(aggs))
		for i, a := range aggs {
			out[i] = wire.AggregateToJSON(a)
		}
		return &wire.RoutesResponse{Aggregates: out}, nil
	})
	handle("/v1/query", wire.OpQuery, func(ctx context.Context, body []byte) (any, error) {
		var req wire.QueryRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		src := req.Query
		if req.Explain {
			src = ccam.ExplainStatement(src)
		}
		res, err := s.st.Query(ctx, src)
		if err != nil {
			return nil, err
		}
		return &wire.QueryResponse{Result: res}, nil
	})
	handle("/v1/apply", wire.OpApply, func(ctx context.Context, body []byte) (any, error) {
		var req wire.ApplyRequest
		if err := decodeJSON(body, &req); err != nil {
			return nil, err
		}
		b, err := req.Batch()
		if err != nil {
			return nil, err
		}
		if err := s.st.Apply(ctx, b); err != nil {
			return nil, err
		}
		return &wire.ApplyResponse{Applied: b.Len()}, nil
	})
	return mux
}

func decodeJSON(body []byte, into any) error {
	if err := json.Unmarshal(body, into); err != nil {
		return wire.RemoteError(wire.CodeBadRequest, "invalid JSON: "+err.Error())
	}
	return nil
}

func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError maps err through the wire code table onto the HTTP
// status and the JSON error body.
func writeError(w http.ResponseWriter, err error) {
	code := wire.CodeOf(err)
	writeJSON(w, code.HTTPStatus(), wire.ErrorResponse{Error: wire.ErrorJSON{
		Code:    code.String(),
		Message: err.Error(),
	}})
}
