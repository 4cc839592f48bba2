package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync"

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

	// One endpoint per op whose row has a JSON path.
	for op := range wire.Op(wire.NumOps) {
		row := op.Row()
		if info := row.Info(); info.Path != "" {
			open := []byte(`{"` + info.Field + `":`)
			mux.HandleFunc(info.Path, func(w http.ResponseWriter, r *http.Request) {
				s.serveJSON(w, r, op, row, open)
			})
		}
	}
	return mux
}

// serveJSON runs one request of the JSON protocol: its row decodes the
// body and runs the op; the reply is open — `{"<field>":` — then the
// result. The headers are checked first, so a malformed one is refused
// before admission, like a malformed binary header, and counts nowhere.
func (s *Server) serveJSON(w http.ResponseWriter, r *http.Request, op wire.Op, row wire.OpRow, open []byte) {
	if r.Method != http.MethodPost {
		writeError(w, wire.RemoteError(wire.CodeBadRequest, "POST required"))
		return
	}
	// TraceHeader marks the request sampled and asks for the stats
	// field; the server echoes the id on the response.
	meta := reqMeta{op: op}
	ctx := r.Context()
	if th := r.Header.Get(wire.TraceHeader); th != "" {
		n, err := strconv.ParseUint(th, 16, 64)
		if err != nil || n == 0 {
			writeError(w, wire.RemoteError(wire.CodeBadRequest, "bad "+wire.TraceHeader))
			return
		}
		meta.traceID, meta.rs = n, new(ccam.ReqStats)
		ctx = ccam.WithReqStats(ccam.WithTraceID(ctx, n), meta.rs)
		w.Header().Set(wire.TraceHeader, fmt.Sprintf("%016x", n))
	}
	var ms uint64
	if dh := r.Header.Get(DeadlineHeader); dh != "" {
		var err error
		if ms, err = strconv.ParseUint(dh, 10, 32); err != nil {
			writeError(w, wire.RemoteError(wire.CodeBadRequest, "bad "+DeadlineHeader))
			return
		}
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
	var out any
	slots, err := s.serve(ctx, meta, uint32(ms), func(ctx context.Context) (err error) {
		out, err = row.ServeJSON(ctx, s.st, body)
		return err
	})
	s.release(slots)
	if err != nil {
		writeError(w, err)
		return
	}
	writeReply(w, open, out, meta.rs)
}

// replyBufs holds the buffers writeReply builds replies in: encoding
// into one reused buffer costs no allocation, where json.Marshal
// copies every reply out.
var replyBufs = sync.Pool{New: func() any { return new(bytes.Buffer) }}

// writeReply writes a success reply: open, the result v and, when the
// request carried TraceHeader, its account rs as "stats" — the bytes
// json.Encoder writes for a struct of those fields, HTML escaping and
// trailing newline included.
func writeReply(w http.ResponseWriter, open []byte, v any, rs *ccam.ReqStats) {
	buf := replyBufs.Get().(*bytes.Buffer)
	defer replyBufs.Put(buf)
	buf.Reset()
	buf.Write(open)
	enc := json.NewEncoder(buf)
	err := enc.Encode(v)
	if err == nil && rs != nil {
		buf.Truncate(buf.Len() - 1) // Encode's newline
		buf.WriteString(`,"stats":`)
		err = enc.Encode(rs)
	}
	if err != nil {
		writeError(w, err)
		return
	}
	buf.Truncate(buf.Len() - 1)
	buf.WriteString("}\n")
	w.Header().Set("Content-Type", "application/json; charset=utf-8")
	w.WriteHeader(http.StatusOK)
	w.Write(buf.Bytes()) // a failed write means the client is gone
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
