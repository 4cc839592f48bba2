package ccam

import (
	"context"
	"expvar"
	"net/http"
	"strconv"
	"time"

	iccam "ccam/internal/ccam"
	"ccam/internal/metrics"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// Observability types re-exported from the metrics layer, so library
// users never import internal packages.
type (
	// Registry is a set of named counters, gauges and latency
	// histograms. It renders itself as Prometheus text (WriteTo) and as
	// expvar-compatible JSON (String).
	Registry = metrics.Registry
	// Tracer records recent operation traces in a ring buffer.
	Tracer = metrics.Tracer
	// Trace is one recorded operation: its duration, what it cost (index
	// visits, pool hits, misses, write-backs) and the spans of its
	// physical reads.
	Trace = metrics.Trace
	// TraceSpan is one timed step inside a trace.
	TraceSpan = metrics.Span
	// HistSnapshot is a point-in-time view of a latency histogram.
	HistSnapshot = metrics.HistSnapshot
)

// WithTraceID returns a context carrying a wire trace id: store
// operations run with it tag their recorded traces, so
// /traces?trace=<id> can answer "what did that request do". A zero id
// returns ctx unchanged.
func WithTraceID(ctx context.Context, id uint64) context.Context {
	return metrics.WithTraceID(ctx, id)
}

// TraceIDFrom extracts the trace id carried by ctx (0 when none).
func TraceIDFrom(ctx context.Context) uint64 {
	return metrics.TraceIDFrom(ctx)
}

// opMetrics holds the pre-created instruments of one facade operation,
// so the instrumented path performs no name lookups.
type opMetrics struct {
	count, errs           *metrics.Counter
	latency               *metrics.Histogram
	dataReads, dataWrites *metrics.Counter
	idxPages              *metrics.Counter
	hits, misses          *metrics.Counter
}

// charge books one finished operation: its count, its outcome, its
// latency and what it cost.
func (om *opMetrics) charge(cost metrics.Cost, dur time.Duration, err error) {
	om.count.Inc()
	if err != nil {
		om.errs.Inc()
	}
	om.latency.Observe(dur.Nanoseconds())
	om.dataReads.Add(cost.Misses)
	om.dataWrites.Add(cost.Writes)
	om.hits.Add(cost.Hits)
	om.misses.Add(cost.Misses)
	om.idxPages.Add(cost.IndexVisits)
}

func newOpMetrics(reg *metrics.Registry, name string) *opMetrics {
	p := "ccam_op_" + name + "_"
	return &opMetrics{
		count:      reg.Counter(p + "total"),
		errs:       reg.Counter(p + "errors_total"),
		latency:    reg.Histogram(p + "ns"),
		dataReads:  reg.Counter(p + "data_reads_total"),
		dataWrites: reg.Counter(p + "data_writes_total"),
		idxPages:   reg.Counter(p + "index_pages_total"),
		hits:       reg.Counter(p + "buffer_hits_total"),
		misses:     reg.Counter(p + "buffer_misses_total"),
	}
}

// opKind names a facade operation that has its own instruments.
type opKind uint8

const (
	opNone opKind = iota // no instruments: Has, reorganizer rounds
	opFind
	opGetASuccessor
	opGetSuccessors
	opEvaluateRoute
	opRangeQuery
	opNearest
	opInsert
	opDelete
	opInsertEdge
	opDeleteEdge
	opSetEdgeCost
	opShortestPath
	opEvaluateTour
	opLocationAllocation
	opEvaluateRouteUnit
	opScan
	opFindBatch
	opEvaluateRoutes
	opBuild
	opApply
	opQuery
	numOps
)

// opNames are the <name> of each operation's ccam_op_<name>_* series
// and of its entry in the trace ring.
var opNames = [numOps]string{
	opFind:               "find",
	opGetASuccessor:      "get_a_successor",
	opGetSuccessors:      "get_successors",
	opEvaluateRoute:      "evaluate_route",
	opRangeQuery:         "range_query",
	opNearest:            "nearest",
	opInsert:             "insert",
	opDelete:             "delete",
	opInsertEdge:         "insert_edge",
	opDeleteEdge:         "delete_edge",
	opSetEdgeCost:        "set_edge_cost",
	opShortestPath:       "shortest_path",
	opEvaluateTour:       "evaluate_tour",
	opLocationAllocation: "location_allocation",
	opEvaluateRouteUnit:  "evaluate_route_unit",
	opScan:               "scan",
	opFindBatch:          "find_batch",
	opEvaluateRoutes:     "evaluate_routes",
	opBuild:              "build",
	opApply:              "apply",
	opQuery:              "query",
}

// mutationOps attributes every op applied through Apply exactly like
// its standalone method.
var mutationOps = [...]opKind{
	netfile.MutInsertNode:  opInsert,
	netfile.MutDeleteNode:  opDelete,
	netfile.MutInsertEdge:  opInsertEdge,
	netfile.MutDeleteEdge:  opDeleteEdge,
	netfile.MutSetEdgeCost: opSetEdgeCost,
}

// observability is the per-store instrumentation state. It exists only
// when metrics are enabled; the facade branches on the nil pointer
// where an operation's account is begun and ended (Store.beginAccount,
// Store.endAccount), so a disabled store pays one predictable branch
// and nothing else.
type observability struct {
	reg *metrics.Registry

	// crr and wcrr publish the running sums of the file's PAG summary
	// (netfile/pag.go) after every build, open and committed batch.
	crr, wcrr *metrics.Gauge

	// snapLag is the distance between the newest committed LSN and the
	// oldest pinned snapshot (0 with no readers pinned); snapsActive is
	// the live snapshot count; overlayDepth is the number of batch deltas
	// a node-index lookup walks before the base, the writer's lookups
	// included (a pinned snapshot keeps them from folding).
	// reorgRounds/reorgPages count the reorganization rounds Poke ran
	// that committed a re-clustering, and the pages those rewrote.
	snapLag, snapsActive, overlayDepth *metrics.Gauge
	reorgRounds, reorgPages            *metrics.Counter
	// reorgMoved/reorgKept follow the access method's own counts of what
	// every reorganization — write-path policy or Poke round —
	// did: records that changed page, and reorganizations that moved
	// none.
	reorgMoved, reorgKept *metrics.Counter

	// walCommitWait observes, per committed batch, the time the
	// committing request waited for its WAL commit record to become
	// durable (group-formation wait included).
	walCommitWait *metrics.Histogram

	// ops holds each operation's instruments (nil at opNone).
	ops [numOps]*opMetrics
}

func newObservability(reg *metrics.Registry) *observability {
	o := &observability{
		reg: reg,

		crr:  reg.Gauge("ccam_crr"),
		wcrr: reg.Gauge("ccam_wcrr"),

		snapLag:      reg.Gauge("ccam_snapshot_lag"),
		snapsActive:  reg.Gauge("ccam_snapshots_active"),
		overlayDepth: reg.Gauge("ccam_overlay_depth"),
		reorgRounds:  reg.Counter("ccam_reorg_rounds_total"),
		reorgPages:   reg.Counter("ccam_reorg_pages_total"),
		reorgMoved:   reg.Counter("ccam_reorg_records_moved_total"),
		reorgKept:    reg.Counter("ccam_reorg_kept_total"),

		walCommitWait: reg.Histogram("ccam_wal_commit_wait_ns"),
	}
	for op := opNone + 1; op < numOps; op++ {
		o.ops[op] = newOpMetrics(reg, opNames[op])
	}
	return o
}

// walInstrumentation builds the metric hooks wired into the store's
// write-ahead log: fsync count, commits acknowledged per fsync (the
// group-commit coalescing factor), appended records and bytes.
func (o *observability) walInstrumentation() storage.WALInstrumentation {
	return storage.WALInstrumentation{
		Fsyncs:    o.reg.Counter("ccam_wal_fsyncs_total"),
		GroupSize: o.reg.Histogram("ccam_wal_group_size"),
		Appends:   o.reg.Counter("ccam_wal_appends_total"),
		Bytes:     o.reg.Counter("ccam_wal_bytes_total"),
	}
}

// opAccount is the facade's end of one operation's account. The steps
// that do the work — the cursor, the live file, the buffer pool — count
// into the embedded metrics.Account as they do it, so the totals are
// this operation's own whatever runs beside it. The facade adds only
// who is charged: beginAccount reads the clock once and names the
// operation, endAccount reads it once more and charges, from this one
// struct, the ccam_op_<name>_* series, the request's ReqStats and one
// entry in the trace ring. A query borrows one for its bracket
// (readView), a write transaction holds one by value (writeTx).
type opAccount struct {
	metrics.Account
	op opKind    // opNone: counted but charged to nobody
	rs *ReqStats // the request's account when ctx carried one and Metrics is on
}

// charges reports whether operation op is charged to anybody: never
// opNone, and nothing with Metrics and tracing both off.
func (s *Store) charges(op opKind) bool {
	return op != opNone && (s.obs != nil || s.tracer != nil)
}

// beginAccount starts charging a to operation op. When nobody is
// charged it does nothing: no clock read, no ctx.Value lookup.
func (s *Store) beginAccount(ctx context.Context, op opKind, a *opAccount) {
	if !s.charges(op) {
		return
	}
	a.op = op
	if s.obs != nil {
		a.rs = ReqStatsFrom(ctx)
	}
	a.Begin(s.tracer, opNames[op], metrics.TraceIDFrom(ctx))
}

// endAccount charges the operation once — a second call is a no-op. In
// the request's units a miss is also a data read: the pool reads a page
// exactly when it misses.
func (s *Store) endAccount(a *opAccount, err error) {
	if a.op == opNone {
		return
	}
	dur := a.Finish(err)
	if s.obs != nil {
		s.obs.ops[a.op].charge(a.Cost, dur, err)
	}
	if a.rs != nil {
		a.rs.Add(ReqStats{
			DataReads:    a.Misses,
			DataWrites:   a.Writes,
			IndexPages:   a.IndexVisits,
			BufferHits:   a.Hits,
			BufferMisses: a.Misses,
			Ops:          1,
		})
	}
	a.op = opNone
}

// setGauges publishes what a committed change can move: CRR/WCRR from
// the PAG summary's running sums, and the version layer's health — how
// far the oldest pinned snapshot lags the newest commit (the
// page-version retention window), how many snapshots are pinned and how
// deep the node index's delta list has grown — and brings the
// reorganization counters up to the access method's own. All O(1).
// Caller holds the writer mutex.
func (o *observability) setGauges(m *iccam.Method) {
	f := m.File()
	rs := m.ReorgStats()
	o.reorgMoved.Add(rs.RecordsMoved - o.reorgMoved.Value())
	o.reorgKept.Add(rs.Kept - o.reorgKept.Value())
	st := f.PAG().Stats()
	o.crr.Set(st.CRR())
	o.wcrr.Set(st.WCRR())
	p := f.Pool()
	o.snapLag.Set(float64(p.CommittedLSN() - p.VersionFloor()))
	o.snapsActive.Set(float64(p.ActiveSnapshots()))
	o.overlayDepth.Set(float64(f.OverlayDepth()))
}

// --- public accessors ---

// Metrics returns the store's metrics registry, or nil when metrics are
// disabled. The registry renders itself as Prometheus text via WriteTo
// and as expvar-compatible JSON via String.
func (s *Store) Metrics() *Registry {
	if s.obs == nil {
		return nil
	}
	return s.obs.reg
}

// Tracer returns the store's operation tracer, or nil when tracing is
// disabled.
func (s *Store) Tracer() *Tracer { return s.tracer }

// Traces returns up to n recent operation traces, newest first; nil
// when tracing is disabled.
func (s *Store) Traces(n int) []Trace { return s.tracer.Recent(n) }

// PublishExpvar publishes the store's registry under name in the
// process-wide expvar namespace (so it appears at /debug/vars). It is a
// no-op when metrics are disabled. expvar panics on duplicate names, so
// publish each store at most once.
func (s *Store) PublishExpvar(name string) {
	if r := s.Metrics(); r != nil {
		expvar.Publish(name, r)
	}
}

// MetricsHandler returns an http.Handler that serves the store's
// metrics in the Prometheus text exposition format. A store without
// metrics serves an empty document.
func (s *Store) MetricsHandler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		reg := s.Metrics()
		if reg == nil {
			return
		}
		reg.WriteTo(w)
	})
}

// ServeMetrics registers the store's observability endpoints on mux
// (nil selects http.DefaultServeMux): /metrics serves the Prometheus
// text format, /metrics.json the expvar-compatible JSON view, and
// /traces a human-readable dump of recent operation traces. /traces
// accepts ?limit=N (cap the dump), ?trace=<hex id> (only the traces
// tagged with that wire trace id) and ?op=<name> (only that
// operation, by its ccam_op_<name>_* name), so a full ring is never
// dumped unconditionally and "what did request 0xABCD do" is one GET.
func ServeMetrics(mux *http.ServeMux, s *Store) {
	if mux == nil {
		mux = http.DefaultServeMux
	}
	mux.Handle("/metrics", s.MetricsHandler())
	mux.HandleFunc("/metrics.json", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "application/json; charset=utf-8")
		if reg := s.Metrics(); reg != nil {
			w.Write([]byte(reg.String()))
		} else {
			w.Write([]byte("{}"))
		}
	})
	mux.HandleFunc("/traces", func(w http.ResponseWriter, r *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		tr := s.Tracer() // nil without tracing: an empty ring
		q := r.URL.Query()
		n := tr.Capacity()
		if v := q.Get("limit"); v != "" {
			lim, err := strconv.Atoi(v)
			if err != nil || lim < 0 {
				http.Error(w, "bad limit", http.StatusBadRequest)
				return
			}
			if lim < n {
				n = lim
			}
		}
		var f metrics.TraceFilter
		if v := q.Get("trace"); v != "" {
			id, err := strconv.ParseUint(v, 16, 64)
			if err != nil || id == 0 {
				http.Error(w, "bad trace id (want hex)", http.StatusBadRequest)
				return
			}
			f.TraceID = id
		}
		f.Op = q.Get("op")
		metrics.WriteTraces(w, tr.Select(n, f))
	})
}
