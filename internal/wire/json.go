package wire

import (
	"encoding/json"
	"fmt"

	"ccam"
)

// The JSON protocol. One endpoint per op of the op table, all POST
// with a JSON body (GET /v1/info is the read-only exception). A reply
// is an object holding the op's result under one field:
//
//	POST /v1/find        IDRequest         -> {"record": RecordJSON}
//	POST /v1/has         IDRequest         -> {"has": bool}
//	POST /v1/successors  IDRequest         -> {"records": [RecordJSON]}
//	POST /v1/route       RouteRequest      -> {"aggregate": AggregateJSON}
//	POST /v1/range       RangeRequest      -> {"records": [RecordJSON]}
//	POST /v1/find-batch  FindBatchRequest  -> {"records": [RecordJSON]}
//	POST /v1/routes      RoutesRequest     -> {"aggregates": [AggregateJSON]}
//	POST /v1/apply       ApplyRequest      -> {"applied": int}
//	POST /v1/query       QueryRequest      -> {"result": ccam.Result}
//	GET  /v1/info                          -> InfoResponse
//
// A request that carries TraceHeader gets its ccam.ReqStats beside the
// result, as "stats". A non-2xx response carries ErrorResponse; its
// "code" field is the stable Code name and is the only part clients
// should branch on.

// RecordJSON is the JSON form of a stored node record.
type RecordJSON struct {
	ID ccam.NodeID `json:"id"`
	X  float64     `json:"x"`
	Y  float64     `json:"y"`
	// Attrs is the opaque attribute payload (base64 via encoding/json's
	// []byte convention); omitted when empty.
	Attrs []byte        `json:"attrs,omitempty"`
	Succs []SuccJSON    `json:"succs,omitempty"`
	Preds []ccam.NodeID `json:"preds,omitempty"`
}

// SuccJSON is one successor-list element.
type SuccJSON struct {
	To   ccam.NodeID `json:"to"`
	Cost float32     `json:"cost"`
}

// RecordToJSON converts a stored record to its wire form.
func RecordToJSON(r *ccam.Record) RecordJSON {
	out := RecordJSON{ID: r.ID, X: r.Pos.X, Y: r.Pos.Y, Attrs: r.Attrs, Preds: r.Preds}
	if len(r.Succs) > 0 {
		out.Succs = make([]SuccJSON, len(r.Succs))
		for i, s := range r.Succs {
			out.Succs[i] = SuccJSON{To: s.To, Cost: s.Cost}
		}
	}
	return out
}

// Record converts the wire form back to a record.
func (r RecordJSON) Record() *ccam.Record {
	rec := &ccam.Record{
		ID:    r.ID,
		Pos:   ccam.Point{X: r.X, Y: r.Y},
		Attrs: r.Attrs,
		Preds: r.Preds,
	}
	if len(r.Succs) > 0 {
		rec.Succs = make([]ccam.SuccEntry, len(r.Succs))
		for i, s := range r.Succs {
			rec.Succs[i] = ccam.SuccEntry{To: s.To, Cost: s.Cost}
		}
	}
	return rec
}

// AggregateJSON is the JSON form of a route aggregate.
type AggregateJSON struct {
	Nodes     int     `json:"nodes"`
	TotalCost float64 `json:"total_cost"`
	MinCost   float64 `json:"min_cost"`
	MaxCost   float64 `json:"max_cost"`
}

// AggregateToJSON converts a route aggregate to its wire form; the
// two types differ only in their field tags.
func AggregateToJSON(a ccam.RouteAggregate) AggregateJSON { return AggregateJSON(a) }

// Request bodies. Query windows travel as ccam.Rect directly — the
// type marshals itself as {"min_x":…,"min_y":…,"max_x":…,"max_y":…}
// and normalizes corner order on decode, so the wire, the CCAM-QL
// WINDOW clause and RangeQuery all share one window encoding.
type (
	// IDRequest names one node: the record to find or test for, or
	// the node whose successor records to fetch.
	IDRequest struct {
		ID ccam.NodeID `json:"id"`
	}
	// RouteRequest asks for the aggregate of one route.
	RouteRequest struct {
		Route []ccam.NodeID `json:"route"`
	}
	// RangeRequest asks for all records inside a window.
	RangeRequest struct {
		Rect ccam.Rect `json:"rect"`
	}
	// FindBatchRequest asks for many records (positional results).
	FindBatchRequest struct {
		IDs []ccam.NodeID `json:"ids"`
	}
	// RoutesRequest asks for many route aggregates (positional).
	RoutesRequest struct {
		Routes []ccam.Route `json:"routes"`
	}
	// ApplyRequest carries one transactional batch; all ops commit or
	// none do.
	ApplyRequest struct {
		Ops []ApplyOp `json:"ops"`
	}
	// QueryRequest carries one CCAM-QL statement. Explain asks for the
	// plan without executing, equivalent to an EXPLAIN prefix in the
	// statement itself.
	QueryRequest struct {
		Query   string `json:"query"`
		Explain bool   `json:"explain,omitempty"`
	}
)

// ApplyOp kind names (the ApplyOp.Kind field).
const (
	OpInsertNode  = "insert-node"
	OpDeleteNode  = "delete-node"
	OpInsertEdge  = "insert-edge"
	OpDeleteEdge  = "delete-edge"
	OpSetEdgeCost = "set-edge-cost"
)

// ApplyOp is one mutation of a transactional batch. Kind selects which
// fields matter:
//
//	insert-node:   Node (its Succs carry the out-edge costs), PredCosts
//	               (positional costs of Node.Preds), Policy
//	delete-node:   ID, Policy
//	insert-edge:   From, To, Cost, Policy
//	delete-edge:   From, To, Policy
//	set-edge-cost: From, To, Cost
type ApplyOp struct {
	Kind      string      `json:"kind"`
	Policy    string      `json:"policy,omitempty"`
	Node      *RecordJSON `json:"node,omitempty"`
	PredCosts []float32   `json:"pred_costs,omitempty"`
	ID        ccam.NodeID `json:"id,omitempty"`
	From      ccam.NodeID `json:"from,omitempty"`
	To        ccam.NodeID `json:"to,omitempty"`
	Cost      float32     `json:"cost,omitempty"`
}

// ParsePolicy resolves a reorganization policy name. The empty string
// is FirstOrder (the cheapest policy is the default).
func ParsePolicy(name string) (ccam.Policy, error) {
	switch name {
	case "", "first-order":
		return ccam.FirstOrder, nil
	case "second-order":
		return ccam.SecondOrder, nil
	case "higher-order":
		return ccam.HigherOrder, nil
	case "lazy":
		return ccam.Lazy, nil
	}
	return 0, fmt.Errorf("%w: unknown policy %q", ErrBadRequest, name)
}

// Batch converts the request into the store's batch form. A malformed
// insert — its pred costs not matching its preds, or the reserved id
// graph.InvalidNodeID — is a bad request.
func (r *ApplyRequest) Batch() (*ccam.Batch, error) {
	b := new(ccam.Batch)
	for i, op := range r.Ops {
		pol, err := ParsePolicy(op.Policy)
		if err != nil {
			return nil, fmt.Errorf("op %d: %w", i, err)
		}
		switch op.Kind {
		case OpInsertNode:
			if op.Node == nil {
				return nil, fmt.Errorf("%w: op %d: insert-node without node", ErrBadRequest, i)
			}
			ins := &ccam.InsertOp{Rec: op.Node.Record(), PredCosts: op.PredCosts}
			if err := ins.Validate(); err != nil {
				return nil, fmt.Errorf("%w: op %d: %v", ErrBadRequest, i, err)
			}
			b.Insert(ins, pol)
		case OpDeleteNode:
			b.Delete(op.ID, pol)
		case OpInsertEdge:
			b.InsertEdge(op.From, op.To, op.Cost, pol)
		case OpDeleteEdge:
			b.DeleteEdge(op.From, op.To, pol)
		case OpSetEdgeCost:
			b.SetEdgeCost(op.From, op.To, op.Cost)
		default:
			return nil, fmt.Errorf("%w: op %d: unknown kind %q", ErrBadRequest, i, op.Kind)
		}
	}
	return b, nil
}

// TraceHeader is the HTTP request header carrying a 16-hex-digit
// trace id, the JSON protocol's form of the binary extended header:
// its presence marks the request sampled (store-side traces are
// tagged with the id) and asks for the per-request stats field in the
// response. The server echoes it on the response.
const TraceHeader = "X-Ccam-Trace"

// Response bodies beside the op replies.
type (
	// InfoResponse describes the served store.
	InfoResponse struct {
		Name        string `json:"name"`
		Nodes       int    `json:"nodes"`
		Pages       int    `json:"pages"`
		MaxInFlight int    `json:"max_in_flight"`
	}
	// ErrorResponse is the body of every non-2xx JSON response.
	ErrorResponse struct {
		Error ErrorJSON `json:"error"`
	}
	// ErrorJSON is the error payload: the stable code name plus a
	// human-readable message.
	ErrorJSON struct {
		Code    string `json:"code"`
		Message string `json:"message"`
	}
)

// DecodeErrorResponse turns an ErrorResponse body into the client-side
// error (wrapping the code's sentinel).
func DecodeErrorResponse(body []byte, httpStatus int) error {
	var er ErrorResponse
	if err := json.Unmarshal(body, &er); err != nil || er.Error.Code == "" {
		return RemoteError(CodeInternal, fmt.Sprintf("http %d: %s", httpStatus, body))
	}
	return RemoteError(CodeFromName(er.Error.Code), er.Error.Message)
}
