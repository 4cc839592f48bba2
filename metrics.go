package ccam

import (
	"context"
	"expvar"
	"net/http"
	"strconv"
	"time"

	"ccam/internal/buffer"
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
	// Trace is one recorded operation with its spans.
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

// opNames are the <name> of each operation's ccam_op_<name>_* series.
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
// where an operation's counter snapshot starts (Store.snap), so a
// disabled store pays one predictable branch and nothing else.
type observability struct {
	reg    *metrics.Registry
	tracer *metrics.Tracer

	// crr and wcrr publish the running sums of the file's PAG summary
	// (netfile/pag.go) after every build, open and committed batch.
	crr, wcrr *metrics.Gauge

	// snapLag is the distance between the newest committed LSN and the
	// oldest pinned snapshot (0 with no readers pinned); snapsActive is
	// the live snapshot count; overlayDepth is the number of batch deltas
	// a node-index lookup walks before the base, the writer's lookups
	// included (a pinned snapshot keeps them from folding).
	// reorgRounds/reorgPages count background reorganizer activity.
	snapLag, snapsActive, overlayDepth *metrics.Gauge
	reorgRounds, reorgPages            *metrics.Counter
	// reorgMoved/reorgKept follow the access method's own counts of what
	// every reorganization — write-path policy or background round —
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

func newObservability(reg *metrics.Registry, tr *metrics.Tracer) *observability {
	o := &observability{
		reg:    reg,
		tracer: tr,

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

// opSnap is one operation's counter snapshot: snap captures the layer
// counters at operation start, end charges the operation with the
// deltas. The zero value is inactive and its end does nothing. The I/O
// attribution is exact while operations run one at a time (the paper's
// cost model); under concurrent readers a page fetched by an
// overlapping operation may be charged to this one, but the global
// per-class counters and latency histograms stay exact.
type opSnap struct {
	f     *netfile.File // nil: inactive (never started, or already charged)
	om    *opMetrics    // nil: the deltas are only returned
	rs    *ReqStats
	start time.Time
	io    storage.Stats
	pool  buffer.Stats
	idx   int64
}

// snap starts the counter snapshot of operation op on f. With Metrics
// on, end charges op's instruments and, when ctx carries a *ReqStats (a
// request served by ccam-serve), that account too. With Metrics off, or
// for opNone, nothing is snapshotted and the ctx.Value lookup is not
// paid — unless the caller needs the deltas themselves (force: Query's
// Result.Actual).
func (s *Store) snap(ctx context.Context, op opKind, f *netfile.File, force bool) opSnap {
	var sn opSnap
	if s.obs != nil && op != opNone {
		sn.om = s.obs.ops[op]
		sn.rs = ReqStatsFrom(ctx)
	} else if !force {
		return sn
	}
	sn.f = f
	sn.start = time.Now()
	sn.io = f.DataIO()
	sn.pool = f.Pool().Stats()
	sn.idx = f.IndexVisits()
	return sn
}

// end charges the operation once — a second call is a no-op — and
// returns what it cost.
func (sn *opSnap) end(err error) ReqStats {
	f := sn.f
	if f == nil {
		return ReqStats{}
	}
	sn.f = nil
	io := f.DataIO().Sub(sn.io)
	ps := f.Pool().Stats().Sub(sn.pool)
	cost := ReqStats{
		DataReads:    io.Reads,
		DataWrites:   io.Writes,
		IndexPages:   f.IndexVisits() - sn.idx,
		BufferHits:   ps.Hits,
		BufferMisses: ps.Misses,
		Ops:          1,
	}
	if om := sn.om; om != nil {
		om.count.Inc()
		if err != nil {
			om.errs.Inc()
		}
		om.latency.ObserveSince(sn.start)
		om.dataReads.Add(cost.DataReads)
		om.dataWrites.Add(cost.DataWrites)
		om.hits.Add(cost.BufferHits)
		om.misses.Add(cost.BufferMisses)
		om.idxPages.Add(cost.IndexPages)
	}
	if sn.rs != nil {
		sn.rs.Add(cost)
	}
	return cost
}

// setGauges publishes what a committed change can move: CRR/WCRR from
// the PAG summary's running sums, and the version layer's health — how
// far the oldest pinned snapshot lags the newest commit (the
// page-version retention window), how many snapshots are pinned and how
// deep the node index's delta list has grown — and brings the
// reorganization counters up to the access method's own. All O(1).
// Caller holds the writer mutex.
func (o *observability) setGauges(m netfile.AccessMethod) {
	f := m.File()
	if cm, ok := m.(*iccam.Method); ok {
		rs := cm.ReorgStats()
		o.reorgMoved.Add(rs.RecordsMoved - o.reorgMoved.Value())
		o.reorgKept.Add(rs.Kept - o.reorgKept.Value())
	}
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
func (s *Store) Traces(n int) []Trace {
	if s.tracer == nil {
		return nil
	}
	return s.tracer.Recent(n)
}

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
// operation), so a full 128-entry ring is never dumped unconditionally
// and "what did request 0xABCD do" is one GET.
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
		tr := s.Tracer()
		if tr == nil {
			return
		}
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
