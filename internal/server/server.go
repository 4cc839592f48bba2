// Package server puts a ccam.Store in front of network traffic. It
// renders internal/wire's op table as two protocols — JSON over HTTP
// (Handler: one endpoint per row) and the compact binary protocol
// (ServeBinary: one row lookup per request) — and takes every request
// of either through one lifecycle (serve): admission control that sheds
// excess load with ccam.ErrOverloaded, the request's deadline, the
// instruments, and the op. Shutdown drains gracefully: it stops
// accepting work, finishes what is in flight, and checkpoints so a
// reopen replays nothing.
package server

import (
	"context"
	"fmt"
	"log/slog"
	"net"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"ccam"
	"ccam/internal/metrics"
	"ccam/internal/wire"
)

// Options configures a Server.
type Options struct {
	// Store is the served store. Required.
	Store *ccam.Store
	// MaxInFlight caps the requests admitted and not yet answered,
	// across both protocols (a pipelined binary reply holds its slot
	// until the write that carries it); a request arriving with the cap
	// exhausted is shed immediately with ccam.ErrOverloaded instead of
	// queueing behind work the server cannot keep up with. Zero selects
	// 1024.
	MaxInFlight int
	// DefaultDeadline bounds requests that carry no deadline of their
	// own. Zero means unbounded.
	DefaultDeadline time.Duration
	// Logger receives structured server events: connection lifecycle
	// (debug), shed requests and slow queries (warn), drain progress
	// (info). Nil disables logging entirely — the serving path then
	// pays one nil check per event and allocates nothing.
	Logger *slog.Logger
	// SlowQuery, when positive, is the latency budget of the slow-query
	// log: any request running at least this long is counted in
	// ccam_server_slow_total and logged (via Logger) with its op,
	// latency, trace id, per-request resource account and — for sampled
	// requests — the span breakdown of its store-side traces.
	SlowQuery time.Duration
}

// DefaultMaxInFlight is the admission cap when Options.MaxInFlight is
// zero. Connections are not capped — only running requests are — so
// idle connections cost one goroutine and no admission slots.
const DefaultMaxInFlight = 1024

// Server serves one store over both protocols.
type Server struct {
	st          *ccam.Store
	maxInFlight int
	defDeadline time.Duration
	log         *slog.Logger
	slowQuery   time.Duration

	// The admission state: inflight counts admitted requests whose
	// reply is not out yet (plus, for an instant, a request being
	// refused); draining refuses new ones; drained is closed when
	// inflight reaches zero during a drain, which is final — nothing is
	// admitted after draining is set.
	inflight  atomic.Int64
	draining  atomic.Bool
	drained   chan struct{}
	drainOnce sync.Once

	// conns tracks open binary connections, and connWG their goroutines,
	// so Shutdown can end them after the drain.
	connMu sync.Mutex
	conns  map[net.Conn]struct{}
	connWG sync.WaitGroup
	// work hands a request to an idle hand-off worker (see handOff).
	work chan func()

	// listenMu guards listeners registered by ServeBinary.
	listenMu  sync.Mutex
	listeners []net.Listener

	reg     *metrics.Registry
	sheds   *metrics.Counter
	slow    *metrics.Counter
	latency *metrics.Histogram
	// inlined counts the binary requests run on their connection's
	// goroutine, writes the write calls on binary connections: with
	// requests they say how many replies one write carries.
	inlined *metrics.Counter
	writes  *metrics.Counter

	// ops holds the per-operation RED instruments, indexed by wire op
	// (the JSON endpoints map onto the binary ops one-to-one); noRow,
	// registered under no name, counts the requests whose op code has
	// no row. ccam_server_requests_total and _errors_total are their
	// sums.
	ops   [wire.NumOps]opInstruments
	noRow opInstruments

	// slowLim rate-limits slow-query and shed log lines so an overload
	// storm cannot flood the log.
	slowLim logLimiter
	shedLim logLimiter
}

// opInstruments is one operation's server-side RED set: request rate,
// errors, duration.
type opInstruments struct {
	reqs    *metrics.Counter
	errs    *metrics.Counter
	latency *metrics.Histogram
}

// logLimiter is a crude token bucket: at most burst events per second,
// counting what it suppressed.
type logLimiter struct {
	mu          sync.Mutex
	windowStart time.Time
	n           int
	suppressed  int64
}

const logLimiterBurst = 10

// allow reports whether an event may be logged now, returning the
// number of events suppressed since the last allowed one (reported so
// log volume stays an honest signal).
func (l *logLimiter) allow() (ok bool, suppressed int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	now := time.Now()
	if now.Sub(l.windowStart) >= time.Second {
		l.windowStart = now
		l.n = 0
	}
	if l.n >= logLimiterBurst {
		l.suppressed++
		return false, 0
	}
	l.n++
	suppressed = l.suppressed
	l.suppressed = 0
	return true, suppressed
}

// New builds a server over st. Server instruments (request count,
// errors, sheds, latency histogram) land in the store's metrics
// registry when the store has one, so /metrics exposes store and
// server series side by side; a store without metrics gets a private
// registry (Stats still works, /metrics stays store-only).
func New(opts Options) *Server {
	if opts.Store == nil {
		panic("server: Options.Store is required")
	}
	s := &Server{
		st:          opts.Store,
		maxInFlight: opts.MaxInFlight,
		defDeadline: opts.DefaultDeadline,
		log:         opts.Logger,
		slowQuery:   opts.SlowQuery,
		conns:       make(map[net.Conn]struct{}),
		drained:     make(chan struct{}),
		work:        make(chan func()),
	}
	if s.maxInFlight <= 0 {
		s.maxInFlight = DefaultMaxInFlight
	}
	s.reg = opts.Store.Metrics()
	if s.reg == nil {
		s.reg = metrics.NewRegistry()
	}
	s.sheds = s.reg.Counter("ccam_server_shed_total")
	s.slow = s.reg.Counter("ccam_server_slow_total")
	s.latency = s.reg.Histogram("ccam_server_request_ns")
	s.inlined = s.reg.Counter("ccam_server_inline_total")
	s.writes = s.reg.Counter("ccam_server_writes_total")
	for op := range s.ops {
		p := "ccam_server_op_" + strings.ReplaceAll(wire.Op(op).String(), "-", "_") + "_"
		s.ops[op] = opInstruments{
			reqs:    s.reg.Counter(p + "total"),
			errs:    s.reg.Counter(p + "errors_total"),
			latency: s.reg.Histogram(p + "ns"),
		}
	}
	s.noRow = opInstruments{reqs: new(metrics.Counter), errs: new(metrics.Counter)}
	s.reg.CounterFunc("ccam_server_requests_total", func() int64 {
		reqs, _ := s.totals()
		return reqs
	})
	s.reg.CounterFunc("ccam_server_errors_total", func() int64 {
		_, errs := s.totals()
		return errs
	})
	s.reg.GaugeFunc("ccam_server_inflight", func() float64 {
		return float64(s.inflight.Load())
	})
	return s
}

// Store returns the served store.
func (s *Server) Store() *ccam.Store { return s.st }

// MaxInFlight returns the effective admission cap.
func (s *Server) MaxInFlight() int { return s.maxInFlight }

// admit claims an admission slot for one request. It never blocks: over
// the cap it sheds with ccam.ErrOverloaded, during a drain it refuses
// with ccam.ErrClosed; a refusal is marked in meta.rs (when the client
// asked for stats) so it explains itself on the wire. The slot is
// counted in before the checks, so a drain that sets draining and then
// finds inflight at zero has missed no request. An admitted request's
// slot is given back with release.
func (s *Server) admit(meta reqMeta) error {
	n := s.inflight.Add(1)
	var err error
	switch {
	case s.draining.Load():
		err = ccam.ErrClosed
	case n > int64(s.maxInFlight):
		s.sheds.Inc()
		err = fmt.Errorf("%w: %d requests in flight", ccam.ErrOverloaded, n-1)
	default:
		return nil
	}
	s.release(1)
	if meta.rs != nil {
		meta.rs.Shed = true
	}
	s.logShed(meta, err)
	return err
}

// release gives n admission slots back and, when that empties a
// draining server, lets Shutdown go on.
func (s *Server) release(n int) {
	if s.inflight.Add(int64(-n)) == 0 && s.draining.Load() {
		s.drainOnce.Do(func() { close(s.drained) })
	}
}

// requestHook, when non-nil, runs inside every admitted request with
// the request's context, before dispatch. Test-only: it lets tests
// hold requests in flight and observe context cancellation.
var requestHook func(ctx context.Context)

// reqMeta is the per-request observability context: which op runs, the
// wire trace id (0 = untraced), the resource account being filled for
// the client (nil = not requested) and whether the request runs on its
// connection's goroutine.
type reqMeta struct {
	op      wire.Op
	traceID uint64
	rs      *ccam.ReqStats
	inline  bool
}

// serve takes one request of either protocol through its lifecycle:
// admit it, bound its context by its deadline (deadlineMS, 0 for none),
// count it in, run it, record how it ended. It returns the admission
// slots the request holds — 1, or 0 when it was refused — for the
// caller to give back once the reply is out.
func (s *Server) serve(ctx context.Context, meta reqMeta, deadlineMS uint32, run func(context.Context) error) (slots int, err error) {
	if err := s.admit(meta); err != nil {
		return 0, err
	}
	if d := s.deadline(deadlineMS); d > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, d)
		defer cancel()
	}
	if meta.inline {
		s.inlined.Inc()
	}
	s.opRow(meta.op).reqs.Inc()
	start := time.Now()
	if requestHook != nil {
		requestHook(ctx)
	}
	err = run(ctx)
	s.end(meta, start, err)
	return 1, err
}

// deadline is the time budget of a request: the shorter of its own
// (ms, 0 for none) and the server's default (0: unbounded).
func (s *Server) deadline(ms uint32) time.Duration {
	d := time.Duration(ms) * time.Millisecond
	if s.defDeadline > 0 && (d == 0 || s.defDeadline < d) {
		d = s.defDeadline
	}
	return d
}

// opRow returns the instruments of op: its row's, or noRow.
func (s *Server) opRow(op wire.Op) *opInstruments {
	if int(op) < len(s.ops) {
		return &s.ops[op]
	}
	return &s.noRow
}

// end records how a request begun at start ended: the global latency,
// the op's instruments, and the slow-query log.
func (s *Server) end(meta reqMeta, start time.Time, err error) {
	dur := time.Since(start)
	s.latency.Observe(dur.Nanoseconds())
	oi := s.opRow(meta.op)
	oi.latency.Observe(dur.Nanoseconds())
	if err != nil {
		oi.errs.Inc()
	}
	if s.slowQuery > 0 && dur >= s.slowQuery {
		s.slow.Inc()
		s.logSlow(meta, dur, err)
	}
}

// logShed records an admission refusal (rate-limited: overload storms
// shed thousands per second).
func (s *Server) logShed(meta reqMeta, err error) {
	if s.log == nil {
		return
	}
	ok, suppressed := s.shedLim.allow()
	if !ok {
		return
	}
	s.log.Warn("request shed", "op", meta.op.String(), "err", err, "suppressed", suppressed)
}

// logSlow emits one slow-query log line: op, latency, trace id, the
// request's resource account, and — when the request was sampled — what
// each of its store operations counted and how long its physical reads
// took, pulled from the tracer ring by trace id. Rate-limited like shed
// logging.
func (s *Server) logSlow(meta reqMeta, dur time.Duration, err error) {
	if s.log == nil {
		return
	}
	ok, suppressed := s.slowLim.allow()
	if !ok {
		return
	}
	attrs := []any{"op", meta.op.String(), "dur", dur, "suppressed", suppressed}
	if meta.traceID != 0 {
		attrs = append(attrs, "trace", fmt.Sprintf("%016x", meta.traceID))
	}
	if rs := meta.rs; rs != nil {
		attrs = append(attrs,
			"data_reads", rs.DataReads, "index_pages", rs.IndexPages,
			"buffer_hits", rs.BufferHits, "buffer_misses", rs.BufferMisses)
		if rs.DataWrites > 0 {
			attrs = append(attrs, "data_writes", rs.DataWrites)
		}
		if rs.WALWaitNs > 0 {
			attrs = append(attrs, "wal_wait", time.Duration(rs.WALWaitNs))
		}
	}
	if meta.traceID != 0 {
		if spans := s.spanBreakdown(meta.traceID); spans != "" {
			attrs = append(attrs, "spans", spans)
		}
	}
	if err != nil {
		attrs = append(attrs, "err", err)
	}
	s.log.Warn("slow query", attrs...)
}

// spanBreakdown renders the store-side traces tagged with the trace id
// as one compact string, each operation's account before its spans:
// "op dur idx=1 hit=0 miss=1 writes=0 [storage.read +off dur]; op ...".
func (s *Server) spanBreakdown(traceID uint64) string {
	traces := s.st.Tracer().Select(8, metrics.TraceFilter{TraceID: traceID})
	var b strings.Builder
	for i := len(traces) - 1; i >= 0; i-- { // oldest first reads chronologically
		t := &traces[i]
		if b.Len() > 0 {
			b.WriteString("; ")
		}
		fmt.Fprintf(&b, "%s %v %s", t.Op, t.Dur, t.Detail())
	}
	return b.String()
}

// Stats is a point-in-time view of the server instruments.
type Stats struct {
	Requests int64
	Errors   int64
	Sheds    int64
	Latency  metrics.HistSnapshot
}

// Stats snapshots the server instruments.
func (s *Server) Stats() Stats {
	reqs, errs := s.totals()
	return Stats{
		Requests: reqs,
		Errors:   errs,
		Sheds:    s.sheds.Value(),
		Latency:  s.latency.Snapshot(),
	}
}

// totals sums the requests and errors of every op, with a row or none.
func (s *Server) totals() (reqs, errs int64) {
	reqs, errs = s.noRow.reqs.Value(), s.noRow.errs.Value()
	for i := range s.ops {
		reqs += s.ops[i].reqs.Value()
		errs += s.ops[i].errs.Value()
	}
	return reqs, errs
}

// track registers a live binary connection; untrack removes it.
func (s *Server) track(c net.Conn) bool {
	s.connMu.Lock()
	defer s.connMu.Unlock()
	if s.conns == nil {
		return false
	}
	s.conns[c] = struct{}{}
	s.connWG.Add(1)
	return true
}

func (s *Server) untrack(c net.Conn) {
	s.connMu.Lock()
	delete(s.conns, c)
	s.connMu.Unlock()
}

// Shutdown drains the server: stop accepting connections, refuse new
// requests (ccam.ErrClosed), wait for in-flight requests to finish with
// their replies out — bounded by ctx — then end the binary connections
// and checkpoint the store so the next OpenPath replays no WAL. A
// connection is ended by failing its next blocking read, not by closing
// it under its goroutine: requests it has already read are still
// answered (refused) and flushed. The store itself is left open for the
// caller to Close.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	if s.log != nil {
		s.log.Info("drain started", "inflight", s.inflight.Load())
	}
	if s.inflight.Load() == 0 {
		s.drainOnce.Do(func() { close(s.drained) })
	}

	s.listenMu.Lock()
	for _, l := range s.listeners {
		l.Close()
	}
	s.listeners = nil
	s.listenMu.Unlock()

	drainStart := time.Now()
	var drainErr error
	select {
	case <-s.drained:
		if s.log != nil {
			s.log.Info("drain complete", "dur", time.Since(drainStart))
		}
	case <-ctx.Done():
		drainErr = ctx.Err()
		if s.log != nil {
			s.log.Warn("drain abandoned", "dur", time.Since(drainStart), "inflight", s.inflight.Load(), "err", drainErr)
		}
	}

	s.connMu.Lock()
	conns := s.conns
	s.conns = nil
	s.connMu.Unlock()
	for c := range conns {
		c.SetReadDeadline(time.Now())
	}
	closed := make(chan struct{})
	go func() {
		s.connWG.Wait()
		close(closed)
	}()
	select {
	case <-closed:
	case <-ctx.Done():
		// Out of time: cut the connections; their goroutines follow.
		for c := range conns {
			c.Close()
		}
	}

	if err := s.st.Checkpoint(); err != nil && drainErr == nil {
		drainErr = err
	}
	return drainErr
}
