package wire

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"ccam"
)

// Client is a binary-protocol connection. It issues one request at a
// time (calls serialize on an internal mutex); open several clients
// for concurrency — connections are cheap on the server side.
//
// Context handling: a context deadline travels in the request header
// so the server bounds the query itself. If the context is canceled
// while a reply is pending the connection is closed (the server sees
// the disconnect and cancels the running query) and the client is no
// longer usable.
type Client struct {
	mu     sync.Mutex
	conn   net.Conn
	br     *bufio.Reader
	bw     *bufio.Writer
	nextID uint32
	closed atomic.Bool
}

// Dial connects a binary-protocol client to addr.
func Dial(addr string) (*Client, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return NewClient(conn), nil
}

// NewClient wraps an established connection.
func NewClient(conn net.Conn) *Client {
	return &Client{
		conn: conn,
		br:   bufio.NewReaderSize(conn, 16<<10),
		bw:   bufio.NewWriterSize(conn, 16<<10),
	}
}

// Close closes the underlying connection. It is safe to call with a
// request in flight: the exchange unblocks with an error (net.Conn is
// concurrency-safe, so Close takes no client lock).
func (c *Client) Close() error {
	c.closed.Store(true)
	return c.conn.Close()
}

// deadlineMS converts a context deadline to the header's millisecond
// budget (0 = none). A deadline in the past becomes the minimum 1ms so
// the server still sees an expired budget rather than none.
func deadlineMS(ctx context.Context) uint32 {
	dl, ok := ctx.Deadline()
	if !ok {
		return 0
	}
	ms := time.Until(dl).Milliseconds()
	if ms < 1 {
		return 1
	}
	if ms > 1<<31 {
		return 1 << 31
	}
	return uint32(ms)
}

// call performs one request/response exchange. Trace context rides
// the request: a ctx trace id (ccam.WithTraceID) marks the request
// sampled, and a ctx ReqStats sink (ccam.WithReqStats) asks the
// server for the request's resource account, decoded into the sink on
// return — on errors too, so a shed request still reports Shed.
func (c *Client) call(ctx context.Context, op Op, body []byte) ([]byte, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	statsSink := ccam.ReqStatsFrom(ctx)
	traceID := ccam.TraceIDFrom(ctx)
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.closed.Load() {
		return nil, ccam.ErrClosed
	}
	c.nextID++
	h := ReqHeader{
		ID: c.nextID, Op: op, DeadlineMS: deadlineMS(ctx),
		TraceID: traceID, Sampled: traceID != 0, WantStats: statsSink != nil,
	}
	// While the exchange is in flight, a context cancellation must
	// unblock the read: closing the connection is the only portable
	// interrupt, and it doubles as disconnect-propagation to the
	// server.
	stop := context.AfterFunc(ctx, func() { c.Close() })
	respBody, err := c.exchange(h, body, statsSink)
	if !stop() {
		// The cancellation closed the connection or is closing it: the
		// next call must find the client closed either way.
		c.closed.Store(true)
	}
	if err != nil && ctx.Err() != nil {
		return nil, ctx.Err()
	}
	return respBody, err
}

// exchange writes one request and reads its reply.
func (c *Client) exchange(h ReqHeader, body []byte, statsSink *ccam.ReqStats) ([]byte, error) {
	if err := WriteFrame(c.bw, EncodeRequestHeader(h, body)); err != nil {
		return nil, err
	}
	if err := c.bw.Flush(); err != nil {
		return nil, err
	}
	payload, err := ReadFrame(c.br)
	if err != nil {
		return nil, err
	}
	id, respBody, stats, err := DecodeResponseStats(payload)
	if stats != nil && statsSink != nil {
		*statsSink = *stats
	}
	if err == nil && id != h.ID {
		return nil, fmt.Errorf("%w: response id %d for request %d", ErrBadRequest, id, h.ID)
	}
	return respBody, err
}

// Ping round-trips an empty frame.
func (c *Client) Ping(ctx context.Context) error {
	_, err := Call[struct{}](ctx, c, OpPing, struct{}{})
	return err
}

// Find fetches one record.
func (c *Client) Find(ctx context.Context, id ccam.NodeID) (*ccam.Record, error) {
	return Call[*ccam.Record](ctx, c, OpFind, IDRequest{ID: id})
}

// Has reports whether a node is stored.
func (c *Client) Has(ctx context.Context, id ccam.NodeID) (bool, error) {
	return Call[bool](ctx, c, OpHas, IDRequest{ID: id})
}

// GetSuccessors fetches all successor records of a node.
func (c *Client) GetSuccessors(ctx context.Context, id ccam.NodeID) ([]*ccam.Record, error) {
	return Call[[]*ccam.Record](ctx, c, OpGetSuccessors, IDRequest{ID: id})
}

// EvaluateRoute aggregates edge costs along a route.
func (c *Client) EvaluateRoute(ctx context.Context, route ccam.Route) (ccam.RouteAggregate, error) {
	return Call[ccam.RouteAggregate](ctx, c, OpEvaluateRoute, RouteRequest{Route: route})
}

// RangeQuery fetches all records positioned inside the window.
func (c *Client) RangeQuery(ctx context.Context, rect ccam.Rect) ([]*ccam.Record, error) {
	return Call[[]*ccam.Record](ctx, c, OpRangeQuery, RangeRequest{Rect: rect})
}

// FindBatch fetches many records.
func (c *Client) FindBatch(ctx context.Context, ids []ccam.NodeID) ([]*ccam.Record, error) {
	return Call[[]*ccam.Record](ctx, c, OpFindBatch, FindBatchRequest{IDs: ids})
}

// EvaluateRoutes aggregates many routes (positional results).
func (c *Client) EvaluateRoutes(ctx context.Context, routes []ccam.Route) ([]ccam.RouteAggregate, error) {
	return Call[[]ccam.RouteAggregate](ctx, c, OpEvaluateRoutes, RoutesRequest{Routes: routes})
}

// Query runs one CCAM-QL statement on the server.
func (c *Client) Query(ctx context.Context, src string) (*ccam.Result, error) {
	return Call[*ccam.Result](ctx, c, OpQuery, QueryRequest{Query: src})
}

// Explain plans one CCAM-QL statement without executing it.
func (c *Client) Explain(ctx context.Context, src string) (*ccam.Result, error) {
	return Call[*ccam.Result](ctx, c, OpQuery, QueryRequest{Query: src, Explain: true})
}

// Apply commits one transactional batch and returns the op count.
func (c *Client) Apply(ctx context.Context, ops []ApplyOp) (int, error) {
	return Call[int](ctx, c, OpApply, ApplyRequest{Ops: ops})
}
