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
// so the instrumented path performs no name lookups. The operation's
// count, ccam_op_<name>_total, is the latency histogram's.
type opMetrics struct {
	errs                  *metrics.Counter
	latency               *metrics.Histogram
	dataReads, dataWrites *metrics.Counter
	idxPages, hits        *metrics.Counter
}

// charge books one finished operation: its outcome, its latency and
// what it cost.
func (om *opMetrics) charge(cost metrics.Cost, dur time.Duration, err error) {
	if err != nil {
		om.errs.Inc()
	}
	om.latency.Observe(dur.Nanoseconds())
	om.dataReads.Add(cost.Misses)
	om.dataWrites.Add(cost.Writes)
	om.hits.Add(cost.Hits)
	om.idxPages.Add(cost.IndexVisits)
}

func newOpMetrics(reg *metrics.Registry, name string) *opMetrics {
	p := "ccam_op_" + name + "_"
	om := &opMetrics{
		errs:       reg.Counter(p + "errors_total"),
		latency:    reg.Histogram(p + "ns"),
		dataReads:  reg.Counter(p + "data_reads_total"),
		dataWrites: reg.Counter(p + "data_writes_total"),
		idxPages:   reg.Counter(p + "index_pages_total"),
		hits:       reg.Counter(p + "buffer_hits_total"),
	}
	reg.CounterFunc(p+"total", om.latency.Count)
	return om
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
// and nothing else. It holds only the instruments that are the one
// home of their value; every series that restates state kept elsewhere
// reads it when scraped (newObservability, instrumentWAL).
type observability struct {
	reg *metrics.Registry

	// reorgRounds/reorgPages count the reorganization rounds Poke ran
	// that committed a re-clustering, and the pages those rewrote.
	reorgRounds, reorgPages *metrics.Counter

	// walCommitWait observes, per committed batch, the time the
	// committing request waited for its WAL commit record to become
	// durable (group-formation wait included).
	walCommitWait *metrics.Histogram

	// ops holds each operation's instruments (nil at opNone).
	ops [numOps]*opMetrics
}

// newObservability creates s's registry and instruments. The gauges of
// the file's state read it through Store.live when scraped, so a
// closed, poisoned or unbuilt store reports 0, as Len does:
//   - ccam_crr and ccam_wcrr, the PAG summary's ratios (after a reopen
//     every edge weighs 1, so WCRR == CRR until the store is rebuilt);
//   - ccam_snapshot_lag, the distance between the newest committed LSN
//     and the oldest pinned snapshot (the page-version retention window,
//     0 with no reader pinned), and ccam_snapshots_active, the pinned
//     snapshots, both read from the pool's reader slots;
//   - ccam_overlay_depth, the committed batch deltas pinned snapshots
//     hold above the version floor, each one a map a node-index lookup
//     probes before the table (0 after a commit made with nothing
//     pinned);
//   - ccam_buffer_overflow_frames, the frames no-steal holds above the
//     pool's capacity until the next checkpoint.
//
// The reorganization counters read the access method's own counts of
// what every reorganization — write-path policy or Poke round — did,
// under the writer mutex whatever the store's health, so they never go
// back: records that changed page, and reorganizations that moved none.
func newObservability(s *Store) *observability {
	reg := metrics.NewRegistry()
	o := &observability{
		reg:           reg,
		reorgRounds:   reg.Counter("ccam_reorg_rounds_total"),
		reorgPages:    reg.Counter("ccam_reorg_pages_total"),
		walCommitWait: reg.Histogram("ccam_wal_commit_wait_ns"),
	}
	for op := opNone + 1; op < numOps; op++ {
		o.ops[op] = newOpMetrics(reg, opNames[op])
	}
	fileGauge := func(name string, read func(f *netfile.File) float64) {
		reg.GaugeFunc(name, func() (v float64) {
			s.live(func(f *netfile.File) {
				if f != nil {
					v = read(f)
				}
			})
			return v
		})
	}
	fileGauge("ccam_crr", func(f *netfile.File) float64 { return f.PAG().Stats().CRR() })
	fileGauge("ccam_wcrr", func(f *netfile.File) float64 { return f.PAG().Stats().WCRR() })
	fileGauge("ccam_snapshot_lag", func(f *netfile.File) float64 {
		p := f.Pool()
		return float64(p.CommittedLSN() - p.VersionFloor())
	})
	fileGauge("ccam_snapshots_active", func(f *netfile.File) float64 { return float64(f.Pool().ActiveSnapshots()) })
	fileGauge("ccam_overlay_depth", func(f *netfile.File) float64 { return float64(f.OverlayDepth()) })
	fileGauge("ccam_buffer_overflow_frames", func(f *netfile.File) float64 { return float64(f.Pool().OverflowFrames()) })
	reorgCounter := func(name string, read func(iccam.ReorgStats) int64) {
		reg.CounterFunc(name, func() int64 {
			s.mu.Lock()
			defer s.mu.Unlock()
			return read(s.m.ReorgStats())
		})
	}
	reorgCounter("ccam_reorg_records_moved_total", func(rs iccam.ReorgStats) int64 { return rs.RecordsMoved })
	reorgCounter("ccam_reorg_kept_total", func(rs iccam.ReorgStats) int64 { return rs.Kept })
	return o
}

// instrumentWAL exports the store's write-ahead log: fsyncs, appended
// records and bytes, checkpoints and the bytes logged since the last
// one read the log's own counts, and the log observes the commits
// acknowledged per fsync (the group-commit coalescing factor).
func (o *observability) instrumentWAL(w *storage.WAL) {
	w.Instrument(storage.WALInstrumentation{GroupSize: o.reg.Histogram("ccam_wal_group_size")})
	o.reg.CounterFunc("ccam_wal_fsyncs_total", func() int64 {
		n, _ := w.FsyncStats()
		return n
	})
	o.reg.CounterFunc("ccam_wal_appends_total", w.Appends)
	o.reg.CounterFunc("ccam_wal_bytes_total", w.BytesAppended)
	o.reg.CounterFunc("ccam_wal_checkpoints_total", w.Checkpoints)
	o.reg.GaugeFunc("ccam_wal_bytes_since_checkpoint", func() float64 {
		return float64(w.BytesSinceCheckpoint())
	})
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
