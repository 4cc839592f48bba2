// Package ccam is a connectivity-clustered access method for aggregate
// queries on transportation networks, reproducing Shekhar and Liu,
// "CCAM: A Connectivity-Clustered Access Method for Aggregate Queries
// on Transportation Networks" (ICDE 1995).
//
// A CCAM store keeps the nodes of a general network (e.g. a road map)
// in disk pages clustered by connectivity: the nodes of the network are
// assigned to pages via graph partitioning so that a pair of connected
// nodes usually shares a page (a high Connectivity Residue Ratio). That
// makes the operations behind aggregate network queries — Find,
// Get-A-successor, Get-successors and route evaluation — cheap in data
// page accesses, and Insert/Delete maintain the clustering through
// incremental reorganization policies.
//
// # Quick start
//
//	net := ccam.NewNetwork()
//	net.AddNode(ccam.Node{ID: 1, Pos: ccam.Point{X: 0, Y: 0}})
//	net.AddNode(ccam.Node{ID: 2, Pos: ccam.Point{X: 1, Y: 0}})
//	net.AddEdge(ccam.Edge{From: 1, To: 2, Cost: 2.5, Weight: 1})
//
//	store, err := ccam.Open(ccam.Options{PageSize: 2048})
//	...
//	err = store.Build(net)
//	rec, err := store.Find(ctx, 1)
//	agg, err := store.EvaluateRoute(ctx, ccam.Route{1, 2})
//
// Queries are context-first; callers without a context can use the
// ctx-less view: store.Plain().Find(1).
//
// Baseline access methods from the paper's evaluation (DFS-AM, BFS-AM,
// WDFS-AM and the Grid File) are available through NewBaseline for
// comparison studies; the experiment harness behind cmd/ccam-bench
// regenerates every table and figure of the paper.
package ccam

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"os"
	"sync"
	"sync/atomic"
	"time"

	"ccam/internal/buffer"
	iccam "ccam/internal/ccam"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/gridfile"
	"ccam/internal/metrics"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/query"
	"ccam/internal/storage"
	"ccam/internal/topo"
)

// Core re-exported types. The network model lives in internal/graph,
// records and operations in internal/netfile; these aliases make the
// root package self-sufficient for library users.
type (
	// NodeID identifies a network node.
	NodeID = graph.NodeID
	// Node is a network node: id, planar position, attribute payload.
	Node = graph.Node
	// Edge is a directed edge with traversal cost and access weight.
	Edge = graph.Edge
	// Network is an in-memory directed network with successor- and
	// predecessor-lists.
	Network = graph.Network
	// Route is a node sequence connected by directed edges.
	Route = graph.Route
	// Point is a position in the plane.
	Point = geom.Point
	// Rect is an axis-aligned rectangle (for range queries).
	Rect = geom.Rect
	// Record is the stored form of a node: node data, successor-list,
	// predecessor-list.
	Record = netfile.Record
	// SuccEntry is one successor-list element.
	SuccEntry = netfile.SuccEntry
	// InsertOp describes a node insertion with its edges.
	InsertOp = netfile.InsertOp
	// RouteAggregate is the result of a route evaluation query.
	RouteAggregate = netfile.RouteAggregate
	// Policy selects the reorganization behaviour of maintenance
	// operations (paper Table 1).
	Policy = netfile.Policy
	// IOStats counts physical page transfers.
	IOStats = storage.Stats
	// Placement maps nodes to their data pages.
	Placement = graph.Placement
)

// Reorganization policies, in increasing order of overhead.
const (
	// FirstOrder avoids or delays reorganization (only underflow and
	// overflow are handled).
	FirstOrder = netfile.FirstOrder
	// SecondOrder reorganizes the pages the update touches anyway.
	SecondOrder = netfile.SecondOrder
	// HigherOrder also reorganizes the PAG-neighbor pages.
	HigherOrder = netfile.HigherOrder
	// Lazy behaves first-order per update but reorganizes a page's
	// neighborhood after enough updates accumulate on it (paper §2.4).
	Lazy = netfile.Lazy
)

// Common sentinel errors.
var (
	// ErrNotFound reports a missing node.
	ErrNotFound = netfile.ErrNotFound
	// ErrDuplicate reports an insert of an existing node.
	ErrDuplicate = netfile.ErrDuplicate
	// ErrNodeExists is ErrDuplicate under its API-redesign name: an
	// insert (direct or batched) of a node that is already stored.
	// errors.Is matches either spelling.
	ErrNodeExists = netfile.ErrDuplicate
	// ErrClosed reports an operation on a store after Close, or on a
	// store poisoned by a mid-batch apply failure (reopen it with
	// OpenPath to recover the committed prefix).
	ErrClosed = errors.New("ccam: store is closed")
	// ErrOverloaded reports a request shed by admission control: the
	// serving layer (cmd/ccam-serve) was already running its maximum
	// number of in-flight requests and refused this one instead of
	// queueing it. The request did not run; retrying after a backoff is
	// safe.
	ErrOverloaded = errors.New("ccam: server overloaded")
	// ErrEdgeExists reports an insert of an edge that is already
	// stored.
	ErrEdgeExists = graph.ErrEdgeExists
	// ErrEdgeMissing reports an edge operation on an absent edge.
	ErrEdgeMissing = graph.ErrEdgeMissing
	// ErrNoPath reports an unreachable shortest-path destination.
	ErrNoPath = query.ErrNoPath
	// ErrChecksum reports a page (or file header) whose stored CRC32
	// does not match its contents — a torn write, bit rot or a
	// misdirected write in a file-backed store. It surfaces wrapped
	// from any operation that touches the damaged page; ccam-fsck
	// locates and (with -repair) quarantines the page.
	ErrChecksum = storage.ErrChecksum
	// ErrCorruptedPage reports a page whose structure (slotted-page
	// header, slot directory, free-list chain) is invalid.
	ErrCorruptedPage = storage.ErrCorruptedPage
)

// NewNetwork returns an empty in-memory network.
func NewNetwork() *Network { return graph.NewNetwork() }

// NewRect returns the rectangle spanning two corner points.
func NewRect(a, b Point) Rect { return geom.NewRect(a, b) }

// InsertOpFromNode builds the InsertOp that re-inserts node id of g
// with all its current edges.
func InsertOpFromNode(g *Network, id NodeID) (*InsertOp, error) {
	return netfile.InsertOpFromNode(g, id)
}

// CRR returns the Connectivity Residue Ratio of a placement: the
// fraction of edges whose endpoints share a data page.
func CRR(g *Network, p Placement) float64 { return graph.CRR(g, p) }

// WCRR returns the Weighted Connectivity Residue Ratio of a placement.
func WCRR(g *Network, p Placement) float64 { return graph.WCRR(g, p) }

// Options configures a CCAM store.
type Options struct {
	// PageSize is the disk block size in bytes (default 2048).
	PageSize int
	// PoolPages is the buffer pool capacity in pages (default 32).
	PoolPages int
	// PoolShards splits the buffer pool into independently latched
	// shards, so concurrent queries on different pages stop contending
	// on one pool latch. Zero or one keeps the single-latch pool (the
	// paper's serial cost model); AutoPoolShards() picks a value from
	// the machine's parallelism. Per-operation page-access counts are
	// identical at every shard count.
	PoolShards int
	// Prefetch enables connectivity-aware prefetching: on a data-page
	// miss during route or successor evaluation the store
	// asynchronously faults in the PAG-adjacent pages recorded at
	// build time, so the traversal's next hop is usually buffered.
	// Speculative reads are metered separately and never alter the
	// demand hit/miss counters.
	Prefetch bool
	// PrefetchWorkers sizes the prefetcher's worker pool (0 selects
	// the default). Ignored unless Prefetch is set.
	PrefetchWorkers int
	// Dynamic selects the incremental create (CCAM-D): Build loads the
	// network as a sequence of Add-node operations with incremental
	// reclustering, which handles networks too large to partition in
	// one pass. The default is the static create (CCAM-S).
	Dynamic bool
	// Seed drives the partitioner's randomized restarts; equal seeds
	// give identical files.
	Seed int64
	// Path, when non-empty, stores data pages in an os.File-backed page
	// store at that location instead of in memory.
	Path string
	// Spatial selects the secondary spatial index: SpatialZOrder (the
	// paper's Z-ordered B+-tree, the default) or SpatialRTree.
	Spatial SpatialIndexKind
	// Parallelism bounds the worker pool of the batch queries
	// (FindBatch, EvaluateRoutes). Zero means runtime.GOMAXPROCS(0).
	Parallelism int
	// BuildWorkers bounds the worker pool of the static create's
	// clustering recursion. Zero means runtime.GOMAXPROCS(0); one runs
	// serially. The placement depends only on Seed, never on the
	// worker count.
	BuildWorkers int
	// ReadLatency, when positive, charges that much simulated
	// wall-clock time per physical data-page read of the in-memory
	// store, reproducing the paper's disk-resident regime for
	// throughput experiments (page-access counts are unaffected).
	// Ignored when Path is set.
	ReadLatency time.Duration
	// SyncLatency, when positive, charges that much additional
	// simulated wall-clock time per stable-storage sync — every WAL
	// fsync and every data-file sync — the durable-path counterpart
	// of ReadLatency: it reproduces the paper's disk-resident regime
	// on hardware whose local fsync costs only tens of microseconds.
	// Fsync counts, group-commit accounting and page-access counts
	// are unaffected. Ignored without Path.
	SyncLatency time.Duration
	// Metrics enables the observability registry: per-operation
	// counters and latency histograms, per-class page-access counters
	// (B+-tree index vs CCAM data pages), buffer hit/miss latencies and
	// CRR/WCRR gauges refreshed after every mutation. Disabled by
	// default; a disabled store pays one nil check per operation and
	// allocates nothing for instrumentation.
	Metrics bool
	// TraceCapacity, when positive, enables operation tracing: the
	// store keeps the most recent TraceCapacity operation traces, each
	// recording per-span timing of index descent, buffer fetch and
	// physical read. Independent of Metrics.
	TraceCapacity int
	// WAL enables the write-ahead log: every mutation (direct or
	// batched through Apply) is logged before it touches a data page,
	// and OpenPath replays the committed tail after a crash. Requires
	// Path (the log lives in a <Path>.wal directory beside the data
	// file).
	WAL bool
	// SyncPolicy selects when WAL commits are forced to stable
	// storage: SyncGroupCommit (the default) coalesces concurrent
	// committers into one fsync, SyncEveryCommit fsyncs per commit,
	// SyncNone leaves durability to the OS. Ignored without WAL.
	SyncPolicy SyncPolicy
	// CheckpointBytes bounds the WAL between checkpoints: after a
	// commit that leaves more than this many bytes in the log, the
	// store checkpoints (flushes dirty pages and prunes the log)
	// before acknowledging. Zero selects the 4 MiB default; the log
	// always retains at least its last complete checkpoint.
	CheckpointBytes int64
	// BackgroundReorg starts the incremental reorganizer: a goroutine
	// that watches the file's CRR decay under updates and re-clusters
	// the worst PAG neighborhoods a few pages at a time, through the
	// WAL and the version layer, so readers keep their snapshots and
	// never observe a stop-the-world rebuild. Only the CCAM access
	// methods support it.
	BackgroundReorg bool
	// ReorgInterval is the reorganizer's polling period (default 2s).
	ReorgInterval time.Duration
	// ReorgMaxPages bounds the pages one reorganization round may
	// re-cluster (default 16); small rounds keep the write lock short.
	ReorgMaxPages int
	// ReorgTriggerDrop is the CRR decay (from its high-water mark)
	// that triggers a round (default 0.02).
	ReorgTriggerDrop float64
	// applyFaultHook, when non-nil, is called before each batch op is
	// applied (with the op's index) and aborts the batch when it
	// returns an error. Test-only: it simulates a mid-batch failure.
	applyFaultHook func(opIndex int) error
}

// AutoPoolShards returns a buffer-pool shard count sized to the
// machine's parallelism for a pool of poolPages pages: roughly one
// shard per available CPU, but never so many that a shard drops below a
// useful handful of frames. Use it as Options.PoolShards for serving
// workloads; experiments reproducing the paper's serial cost model
// should keep the default single shard.
func AutoPoolShards(poolPages int) int { return buffer.AutoShards(poolPages) }

// SyncPolicy selects when WAL commits are forced to stable storage.
type SyncPolicy = storage.SyncPolicy

// WAL sync policies.
const (
	// SyncGroupCommit (the default) coalesces concurrent committers
	// into one fsync.
	SyncGroupCommit = storage.SyncGroupCommit
	// SyncEveryCommit issues one fsync per commit, serialized.
	SyncEveryCommit = storage.SyncEveryCommit
	// SyncNone never fsyncs on commit; a crash can lose acknowledged
	// commits (but never corrupts the store).
	SyncNone = storage.SyncNone
)

// SpatialIndexKind selects the secondary spatial index structure.
type SpatialIndexKind = netfile.SpatialKind

// Spatial index kinds.
const (
	// SpatialZOrder is the paper's Z-ordered B+-tree.
	SpatialZOrder = netfile.SpatialZOrder
	// SpatialRTree is Guttman's R-tree.
	SpatialRTree = netfile.SpatialRTree
)

// Store is a CCAM file: the paper's access method behind a convenience
// facade. All methods are safe for concurrent use. Queries (Find,
// GetASuccessor, GetSuccessors, EvaluateRoute, RangeQuery, Has,
// FindBatch, EvaluateRoutes and Query) run against an LSN-pinned
// snapshot: each pins the newest committed mutation batch and reads
// page versions and placements as of that batch, so a running Apply —
// including its WAL group-commit fsync and in-lock checkpoints — never
// blocks them and never leaks a half-applied batch into their view.
// The remaining operations (Nearest, the graph searches, Scan,
// EvaluateRouteUnit and the read-only accessors) share a reader-writer
// lock with the mutators: they run in parallel with each other and
// with snapshot queries, while Build, Insert, Delete, InsertEdge,
// DeleteEdge, SetEdgeCost, Apply, ResetIO, Flush and Close are
// exclusive among themselves. This departs from the paper's
// one-query-at-a-time cost model on purpose — route-evaluation
// workloads are read-dominated — without changing any per-operation
// page-access count.
type Store struct {
	// mu serializes mutators (Build, Apply, Flush, Close, ResetIO) and
	// the non-snapshot read operations. structMu guards structural
	// changes — Build replacing the file wholesale, Close, ResetIO —
	// against snapshot readers: snapshot reads hold structMu.RLock
	// only, so Apply (which takes only mu) never blocks them. Lock
	// order: structMu before mu.
	structMu    sync.RWMutex
	mu          sync.RWMutex
	m           netfile.AccessMethod
	fs          *storage.FileStore
	parallelism int
	// obs is non-nil only when Options.Metrics was set; every operation
	// branches on it before paying any instrumentation cost.
	obs    *observability
	tracer *metrics.Tracer
	// lastIO preserves the final I/O snapshot across Close, so IO()
	// keeps answering on a closed store.
	lastIO IOStats
	// closed is written under both structMu and mu, so holding either
	// read lock is enough to observe it.
	closed bool
	// wal is the store's write-ahead log (nil without Options.WAL).
	// It is attached to the data file after Build/OpenPath, switching
	// the buffer pool to no-steal and deferring page frees to the next
	// checkpoint.
	wal             *storage.WAL
	checkpointBytes int64
	// failed poisons the store after a mid-batch apply failure: the
	// in-memory state no longer matches any committed WAL prefix, so
	// every subsequent operation fails with this error until the store
	// is reopened (recovery restores the last committed state). It is
	// an atomic pointer because snapshot readers check it without
	// holding mu while Apply sets it under mu.
	failed atomic.Pointer[error]
	// replayedBatches/replayedMutations count what OpenPath recovered
	// from the WAL tail.
	replayedBatches   int
	replayedMutations int
	applyFaultHook    func(int) error
	// reorg is the background incremental reorganizer (nil without
	// Options.BackgroundReorg). Close halts it before locking.
	reorg *reorganizer
}

// failedErr returns the poison error, or nil on a healthy store.
func (s *Store) failedErr() error {
	if p := s.failed.Load(); p != nil {
		return *p
	}
	return nil
}

// poison marks the store failed; the first error wins.
func (s *Store) poison(err error) { s.failed.CompareAndSwap(nil, &err) }

// Name identifies the underlying access method ("ccam-s", "ccam-d",
// "dfs-am", "bfs-am", "wdfs-am", "grid-file").
func (s *Store) Name() string { return s.m.Name() }

// Open creates a new, empty CCAM store.
func Open(opts Options) (*Store, error) {
	if opts.PageSize == 0 {
		opts.PageSize = 2048
	}
	if opts.WAL && opts.Path == "" {
		return nil, errors.New("ccam: Options.WAL requires Options.Path")
	}
	cfg := iccam.Config{
		PageSize:        opts.PageSize,
		PoolPages:       opts.PoolPages,
		PoolShards:      opts.PoolShards,
		Prefetch:        opts.Prefetch,
		PrefetchWorkers: opts.PrefetchWorkers,
		Seed:            opts.Seed,
		BuildWorkers:    opts.BuildWorkers,
		Dynamic:         opts.Dynamic,
		Spatial:         opts.Spatial,
		ReadLatency:     opts.ReadLatency,
	}
	var fs *storage.FileStore
	if opts.Path != "" {
		// File-backed pages carry a CRC32 trailer verified on every
		// physical read, so on-disk corruption surfaces as ErrChecksum
		// instead of silently wrong records. The on-disk page size is
		// opts.PageSize; the trailer comes out of each page's payload.
		var extra uint32
		if opts.WAL {
			extra = storage.FlagWAL
		}
		cs, inner, err := storage.CreateCheckedFileFlags(opts.Path, opts.PageSize, extra)
		if err != nil {
			return nil, err
		}
		fs = inner
		if opts.SyncLatency > 0 {
			fs.SetSyncLatency(opts.SyncLatency)
		}
		cfg.Store = cs
		cfg.PageSize = cs.PageSize()
	}
	var obs *observability
	var tracer *metrics.Tracer
	if opts.TraceCapacity > 0 {
		tracer = metrics.NewTracer(opts.TraceCapacity)
		cfg.Tracer = tracer
	}
	if opts.Metrics {
		obs = newObservability(metrics.NewRegistry(), tracer)
		cfg.Metrics = obs.reg
	}
	m, err := iccam.New(cfg)
	if err != nil {
		if fs != nil {
			fs.Close()
		}
		return nil, err
	}
	s := &Store{
		m: m, fs: fs, parallelism: opts.Parallelism, obs: obs, tracer: tracer,
		checkpointBytes: opts.CheckpointBytes, applyFaultHook: opts.applyFaultHook,
	}
	if s.checkpointBytes == 0 {
		s.checkpointBytes = defaultCheckpointBytes
	}
	if opts.WAL {
		wal, err := storage.CreateWAL(storage.WALDir(opts.Path), opts.SyncPolicy, 0)
		if err != nil {
			fs.Close()
			return nil, err
		}
		s.wal = wal
		if opts.SyncLatency > 0 {
			wal.SetSyncLatency(opts.SyncLatency)
		}
		if obs != nil {
			wal.Instrument(obs.walInstrumentation())
		}
	}
	if opts.BackgroundReorg {
		if err := s.startReorganizer(opts); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Build loads network g into the store (the paper's Create()),
// replacing any previous contents. With a WAL, the log is reset first
// and a checkpoint is taken after the load: Build itself is not
// crash-atomic (a crash mid-Build leaves neither the old nor the new
// contents recoverable), but once Build returns the loaded network is
// durable and every later Apply is.
func (s *Store) Build(g *Network) error {
	// Build replaces the file wholesale and resets the version layer,
	// so it excludes snapshot readers too (structMu), not just the
	// lock-sharing operations (mu). Any Store.Snapshot the caller
	// still holds must be closed first.
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return err
	}
	if s.reorg != nil {
		// The new contents start a fresh CRR high-water mark.
		s.reorg.resetLocked()
	}
	if s.obs == nil {
		return s.buildLocked(g)
	}
	start := time.Now()
	err := s.buildLocked(g)
	om := s.obs.build
	om.count.Inc()
	if err != nil {
		om.errs.Inc()
		return err
	}
	om.latency.ObserveSince(start)
	s.obs.setGauges(s.m.File())
	return nil
}

func (s *Store) buildLocked(g *Network) error {
	if s.wal != nil {
		// Build replaces the file wholesale; stale log records must not
		// be replayed over the new contents, so the log restarts empty
		// (at a monotonically advanced LSN) before any page is written.
		if err := s.wal.Reset(); err != nil {
			return err
		}
	}
	if err := s.m.Build(g); err != nil {
		return err
	}
	if s.wal != nil {
		f := s.m.File()
		f.AttachWAL(s.wal, s.fs)
		if err := f.Checkpoint(); err != nil {
			return err
		}
	}
	return nil
}

func (s *Store) file() (*netfile.File, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return nil, err
	}
	f := s.m.File()
	if f == nil {
		return nil, fmt.Errorf("ccam: store is empty; call Build first")
	}
	return f, nil
}

// readView is one query's pinned read path: the file (for metrics
// attribution and counters) plus the LSN-pinned view the query reads
// through. It is a plain value over netfile's value-form View, so
// opening, using and releasing a read path allocates nothing.
type readView struct {
	s    *Store
	f    *netfile.File
	view netfile.View
}

// readView opens the read path for one query: it pins the newest
// committed LSN under structMu.RLock — which a running Apply does not
// hold, so the reader starts immediately. release must be called
// exactly once.
func (s *Store) readView() (readView, error) {
	s.structMu.RLock()
	f, err := s.file()
	if err != nil {
		s.structMu.RUnlock()
		return readView{}, err
	}
	return readView{s: s, f: f, view: f.PinView()}, nil
}

func (v readView) release() {
	v.view.Unpin()
	v.s.structMu.RUnlock()
}

// Snapshot pins the newest committed mutation batch and returns a
// read-only view of the store as of that batch: a reader holding it
// sees neither later Apply commits nor background reorganization, no
// matter how long it lives, and never waits on them. Close must be
// called exactly once to release the pinned page versions. The
// snapshot must be closed before Build, ResetIO or Close; it fails
// once the store is poisoned, closed or rebuilt. Returns an error on
// an unbuilt or closed store.
func (s *Store) Snapshot() (*Snapshot, error) {
	s.structMu.RLock()
	defer s.structMu.RUnlock()
	f, err := s.file()
	if err != nil {
		return nil, err
	}
	return f.Snapshot(), nil
}

// Snapshot is an LSN-consistent read-only view of a store, pinned by
// Store.Snapshot. See netfile.Snapshot for the read operations.
type Snapshot = netfile.Snapshot

// Find retrieves the record of a node. The context is checked before
// the record fetch, so canceling it (or exceeding its deadline) stops
// the operation early.
func (s *Store) Find(ctx context.Context, id NodeID) (*Record, error) {
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.find, v.f)
		rec, err := v.view.FindCtx(ctx, id)
		sn.end(err)
		return rec, err
	}
	return v.view.FindCtx(ctx, id)
}

// GetASuccessor retrieves the record of succ, a successor of cur. It is
// handed cur as a record, not as a position in the file, so it is a
// Find of succ: the paper's "the buffered page containing cur is
// searched first" holds as a buffer-pool hit when the two are
// co-located. GetSuccessors and EvaluateRoute hold their position
// between hops and read a co-located successor in place, with no pool
// request at all. The context is checked before the fetch.
func (s *Store) GetASuccessor(ctx context.Context, cur *Record, succ NodeID) (*Record, error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.getASuccessor, v.f)
		rec, err := v.view.GetASuccessor(cur, succ)
		sn.end(err)
		return rec, err
	}
	return v.view.GetASuccessor(cur, succ)
}

// GetSuccessors retrieves the records of all successors of a node.
// The context is checked before the node's own fetch and before each
// successor fetch.
func (s *Store) GetSuccessors(ctx context.Context, id NodeID) ([]*Record, error) {
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.getSuccessors, v.f)
		recs, err := v.view.GetSuccessorsCtx(ctx, id)
		sn.end(err)
		return recs, err
	}
	return v.view.GetSuccessorsCtx(ctx, id)
}

// EvaluateRoute computes the aggregate property of a route as a Find
// followed by Get-A-successor operations. The context is checked
// before each hop's record fetch, so canceling it stops a long route
// without paying for the remaining page reads.
func (s *Store) EvaluateRoute(ctx context.Context, route Route) (RouteAggregate, error) {
	v, err := s.readView()
	if err != nil {
		return RouteAggregate{}, err
	}
	defer v.release()
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.evaluateRoute, v.f)
		agg, err := v.view.EvaluateRouteCtx(ctx, route)
		sn.end(err)
		return agg, err
	}
	return v.view.EvaluateRouteCtx(ctx, route)
}

// RangeQuery returns all records whose positions lie inside rect, via
// the Z-ordered secondary index. The context is checked before each
// candidate record fetch, so canceling it stops the index scan without
// paying for the remaining page reads.
func (s *Store) RangeQuery(ctx context.Context, rect Rect) ([]*Record, error) {
	v, err := s.readView()
	if err != nil {
		return nil, err
	}
	defer v.release()
	if s.obs != nil {
		sn := s.obs.beginOpCtx(ctx, s.obs.rangeQuery, v.f)
		recs, err := v.view.RangeQueryCtx(ctx, rect)
		sn.end(err)
		return recs, err
	}
	return v.view.RangeQueryCtx(ctx, rect)
}

// Insert adds a new node with its edges under the given policy. It is
// a one-op batch: with a WAL the insert is logged and group-committed
// like any Apply.
func (s *Store) Insert(op *InsertOp, policy Policy) error {
	return s.Apply(context.Background(), new(Batch).Insert(op, policy))
}

// Delete removes a node and its incident edges under the given policy
// (a one-op batch).
func (s *Store) Delete(id NodeID, policy Policy) error {
	return s.Apply(context.Background(), new(Batch).Delete(id, policy))
}

// InsertEdge adds a directed edge between stored nodes (a one-op
// batch).
func (s *Store) InsertEdge(from, to NodeID, cost float32, policy Policy) error {
	return s.Apply(context.Background(), new(Batch).InsertEdge(from, to, cost, policy))
}

// DeleteEdge removes a directed edge (a one-op batch).
func (s *Store) DeleteEdge(from, to NodeID, policy Policy) error {
	return s.Apply(context.Background(), new(Batch).DeleteEdge(from, to, policy))
}

// Has reports whether a node is stored. Unlike Contains, it surfaces
// real failures: an unbuilt store or an index error comes back as a
// non-nil error instead of being conflated with "absent". The context
// is checked before the index probe.
func (s *Store) Has(ctx context.Context, id NodeID) (bool, error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	v, err := s.readView()
	if err != nil {
		return false, err
	}
	defer v.release()
	return v.view.Has(id), nil
}

// Contains reports whether a node is stored. It is a convenience
// wrapper around Has that treats every failure as "not stored".
func (s *Store) Contains(id NodeID) bool {
	ok, err := s.Has(context.Background(), id)
	return err == nil && ok
}

// Len returns the number of stored node records.
func (s *Store) Len() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return 0
	}
	return f.NumNodes()
}

// NumPages returns the number of data pages in the file.
func (s *Store) NumPages() int {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return 0
	}
	return f.NumPages()
}

// Placement returns the current node → data page assignment.
func (s *Store) Placement() Placement {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return Placement{}
	}
	return f.Placement()
}

// CRR measures the store's Connectivity Residue Ratio against network
// g.
func (s *Store) CRR(g *Network) float64 { return CRR(g, s.Placement()) }

// WCRR measures the store's Weighted Connectivity Residue Ratio
// against network g.
func (s *Store) WCRR(g *Network) float64 { return WCRR(g, s.Placement()) }

// IO returns the physical data-page I/O counters. The snapshot is
// consistent under concurrent readers: every counter is an atomic
// load, so no field is ever torn mid-increment. On a closed store it
// returns the last snapshot, taken at Close().
func (s *Store) IO() IOStats {
	s.mu.RLock()
	defer s.mu.RUnlock()
	if s.closed {
		return s.lastIO
	}
	f, err := s.file()
	if err != nil {
		return IOStats{}
	}
	return f.DataIO()
}

// ResetIO empties the buffer pool and zeroes the I/O counters, so the
// next operation is measured cold.
func (s *Store) ResetIO() error {
	// Emptying the pool drops version chains too, so snapshot readers
	// are excluded for the duration (structMu), like Build.
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file()
	if err != nil {
		return err
	}
	return f.ResetIO()
}

// Flush writes all buffered dirty pages to the underlying store, and
// syncs the page file when the store is file-backed. With a WAL this
// is a checkpoint: dirty pages are imaged into the log, flushed, and
// the log is pruned to its last complete checkpoint.
func (s *Store) Flush() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file()
	if err != nil {
		return err
	}
	if f.WAL() != nil {
		return f.Checkpoint()
	}
	if err := f.Flush(); err != nil {
		return err
	}
	if s.fs != nil {
		return s.fs.Sync()
	}
	return nil
}

// Checkpoint forces a WAL checkpoint: dirty pages are imaged into the
// log, flushed to the data file, deferred page frees are executed and
// the log is pruned. On a store without a WAL it is Flush.
func (s *Store) Checkpoint() error { return s.Flush() }

// Close flushes (checkpoints, with a WAL) and releases the store. The
// I/O counters are snapshotted first, so IO() keeps answering
// afterwards. A store poisoned by a mid-batch apply failure closes
// without flushing: its memory state is not trustworthy, and the next
// OpenPath recovers the last committed state from the log.
func (s *Store) Close() error {
	// Halt the background reorganizer before locking: its rounds take
	// mu, so halting under the lock would deadlock.
	if s.reorg != nil {
		s.reorg.halt()
	}
	s.structMu.Lock()
	defer s.structMu.Unlock()
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.closed {
		return nil
	}
	if f := s.m.File(); f != nil {
		if s.failedErr() == nil {
			if f.WAL() != nil {
				if err := f.Checkpoint(); err != nil {
					return err
				}
			} else if err := f.Flush(); err != nil {
				return err
			}
		}
		s.lastIO = f.DataIO()
	}
	s.closed = true
	var firstErr error
	if s.wal != nil {
		if err := s.wal.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	if s.fs != nil {
		if err := s.fs.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// BaselineKind names a comparison access method from the paper's
// evaluation.
type BaselineKind string

// Baseline access methods.
const (
	// DFSAM orders nodes by depth-first traversal.
	DFSAM BaselineKind = "dfs-am"
	// BFSAM orders nodes by breadth-first traversal.
	BFSAM BaselineKind = "bfs-am"
	// WDFSAM orders nodes by weight-guided depth-first traversal.
	WDFSAM BaselineKind = "wdfs-am"
	// GridFile clusters nodes by spatial proximity.
	GridFile BaselineKind = "grid-file"
)

// NewBaseline constructs one of the paper's comparison access methods
// behind the same Store facade as CCAM itself, so baselines and CCAM
// share one API surface — queries, batch queries, transactional Apply,
// IO() — and benchmark code needs no per-method branching. Baselines
// do not support a WAL.
func NewBaseline(kind BaselineKind, opts Options) (*Store, error) {
	if opts.PageSize == 0 {
		opts.PageSize = 2048
	}
	if opts.WAL {
		return nil, fmt.Errorf("ccam: baseline %q does not support a WAL", kind)
	}
	if opts.BackgroundReorg {
		return nil, fmt.Errorf("ccam: baseline %q does not support background reorganization", kind)
	}
	var (
		m   netfile.AccessMethod
		err error
	)
	switch kind {
	case DFSAM:
		m, err = topo.New(topo.Config{Kind: topo.DFS, PageSize: opts.PageSize, PoolPages: opts.PoolPages, Seed: opts.Seed})
	case BFSAM:
		m, err = topo.New(topo.Config{Kind: topo.BFS, PageSize: opts.PageSize, PoolPages: opts.PoolPages, Seed: opts.Seed})
	case WDFSAM:
		m, err = topo.New(topo.Config{Kind: topo.WDFS, PageSize: opts.PageSize, PoolPages: opts.PoolPages, Seed: opts.Seed})
	case GridFile:
		m, err = gridfile.New(gridfile.Config{PageSize: opts.PageSize, PoolPages: opts.PoolPages})
	default:
		return nil, fmt.Errorf("ccam: unknown baseline %q", kind)
	}
	if err != nil {
		return nil, err
	}
	return &Store{m: m, parallelism: opts.Parallelism}, nil
}

// RoadMapOpts configures the synthetic road-network generator.
type RoadMapOpts = graph.RoadMapOpts

// MinneapolisLikeOpts returns generator options matching the scale of
// the paper's test data (1077 nodes, 3045 directed edges).
func MinneapolisLikeOpts() RoadMapOpts { return graph.MinneapolisLikeOpts() }

// RoadMap generates a synthetic planar road network.
func RoadMap(opts RoadMapOpts) (*Network, error) { return graph.RoadMap(opts) }

// ReadNetworkJSON parses a network from the JSON schema written by
// Network.WriteJSON (and by cmd/netgen).
func ReadNetworkJSON(r io.Reader) (*Network, error) { return graph.ReadJSON(r) }

// RandomWalkRoutes generates count routes of exactly length nodes each
// by random walks on g, the workload of the paper's route evaluation
// experiments.
func RandomWalkRoutes(g *Network, count, length int, rng *rand.Rand) ([]Route, error) {
	return graph.RandomWalkRoutes(g, count, length, rng)
}

// ApplyRouteWeights sets each edge's access weight to the number of
// times the given routes traverse it (the paper's WCRR workload).
func ApplyRouteWeights(g *Network, routes []Route) (int, error) {
	return graph.ApplyRouteWeights(g, routes)
}

// compile-time interface checks for the facade's building blocks
var (
	_ partition.Bipartitioner = (*partition.RatioCut)(nil)
	_ netfile.AccessMethod    = (*iccam.Method)(nil)
)

// SetEdgeCost updates the stored cost (e.g. current travel time) of a
// directed edge in place (a one-op batch).
func (s *Store) SetEdgeCost(from, to NodeID, cost float32) error {
	return s.Apply(context.Background(), new(Batch).SetEdgeCost(from, to, cost))
}

// Nearest returns the k stored records closest to p by Euclidean
// distance, nearest first, through the spatial index.
func (s *Store) Nearest(p Point, k int) ([]*Record, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return nil, err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.nearest, f)
		recs, err := f.Nearest(p, k)
		sn.end(err)
		return recs, err
	}
	return f.Nearest(p, k)
}

// Query results re-exported from the query layer.
type (
	// Path is a shortest-path result.
	Path = query.Path
	// TourAggregate is the result of a tour evaluation query.
	TourAggregate = query.TourAggregate
	// Allocation assigns one demand node to its nearest facility.
	Allocation = query.Allocation
)

// ShortestPath computes a cheapest path between two stored nodes with
// Dijkstra's algorithm over the file (Get-successors expansions).
func (s *Store) ShortestPath(src, dst NodeID) (Path, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return Path{}, err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.shortestPath, f)
		p, err := query.Dijkstra(f, src, dst)
		sn.end(err)
		return p, err
	}
	return query.Dijkstra(f, src, dst)
}

// ShortestPathAStar computes a cheapest path with A*, using a
// straight-line-distance heuristic scaled by minCostPerUnit (a lower
// bound on edge cost per unit of Euclidean distance; 0 falls back to
// Dijkstra).
func (s *Store) ShortestPathAStar(src, dst NodeID, minCostPerUnit float64) (Path, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return Path{}, err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.shortestPath, f)
		p, err := query.AStar(f, src, dst, minCostPerUnit)
		sn.end(err)
		return p, err
	}
	return query.AStar(f, src, dst, minCostPerUnit)
}

// EvaluateTour evaluates a closed tour (the route plus the edge back to
// its start).
func (s *Store) EvaluateTour(tour Route) (TourAggregate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return TourAggregate{}, err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.evaluateTour, f)
		agg, err := query.EvaluateTour(f, tour)
		sn.end(err)
		return agg, err
	}
	return query.EvaluateTour(f, tour)
}

// LocationAllocation allocates every reachable node to its cheapest
// facility by network distance, returning the allocations plus the
// total and maximum assignment costs.
func (s *Store) LocationAllocation(facilities []NodeID) ([]Allocation, float64, float64, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return nil, 0, 0, err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.locationAllocation, f)
		allocs, total, max, err := query.LocationAllocation(f, facilities)
		sn.end(err)
		return allocs, total, max, err
	}
	return query.LocationAllocation(f, facilities)
}

// OpenPath reopens a file-backed CCAM store previously created with
// Open(Options{Path: ...}). The data pages are read back from disk —
// each page's checksum verified — and the memory-resident structures
// (indexes, free-space map) are rebuilt by one scan. PageSize in opts
// is ignored; the on-disk page size wins. A torn header, broken free
// list or corrupted page fails the open with a wrapped ErrChecksum or
// ErrCorruptedPage; ccam-fsck -repair quarantines the damage so the
// surviving records open.
//
// A store created with Options.WAL recovers here: the data file is
// first restored to its last complete checkpoint image from the log
// (every page write between checkpoints is provisional under the
// no-steal protocol, so the restore discards only uncommitted noise),
// then every batch whose commit record made it to the log is replayed
// in order. Any crash point therefore recovers to exactly the
// committed prefix — no lost and no phantom mutations. The WAL is
// detected from the data file's header flag (or the <path>.wal
// directory); Options.WAL also force-enables it on a store created
// without one.
func OpenPath(path string, opts Options) (*Store, error) {
	walDir := storage.WALDir(path)
	var walRecs []storage.WALRecord
	var ck *storage.WALCheckpoint
	haveWALDir := false
	if _, err := os.Stat(walDir); err == nil {
		haveWALDir = true
		recs, _, err := storage.ScanWALDir(walDir)
		if err != nil {
			return nil, fmt.Errorf("ccam: scan wal: %w", err)
		}
		walRecs = recs
		ck, err = storage.LastCheckpoint(recs)
		if err != nil {
			return nil, fmt.Errorf("ccam: wal checkpoint: %w", err)
		}
		if ck != nil {
			// Restore-always: rewrite the checkpointed page images, free
			// list and header over whatever partial flush a crash left.
			if err := storage.RecoverFile(path, ck); err != nil {
				return nil, fmt.Errorf("ccam: recover %s: %w", path, err)
			}
		}
	}
	st, fs, err := storage.OpenPageFile(path)
	if err != nil {
		return nil, err
	}
	if opts.SyncLatency > 0 {
		fs.SetSyncLatency(opts.SyncLatency)
	}
	wantWAL := opts.WAL || haveWALDir || fs.Flags()&storage.FlagWAL != 0
	f, err := netfile.OpenFromStoreOpts(st, netfile.Options{
		PoolPages:       opts.PoolPages,
		PoolShards:      opts.PoolShards,
		Prefetch:        opts.Prefetch,
		PrefetchWorkers: opts.PrefetchWorkers,
		Spatial:         opts.Spatial,
	})
	if err != nil {
		fs.Close()
		return nil, err
	}
	m, err := iccam.New(iccam.Config{
		PageSize:        st.PageSize(),
		PoolPages:       opts.PoolPages,
		PoolShards:      opts.PoolShards,
		Prefetch:        opts.Prefetch,
		PrefetchWorkers: opts.PrefetchWorkers,
		Seed:            opts.Seed,
		BuildWorkers:    opts.BuildWorkers,
		Dynamic:         opts.Dynamic,
		Store:           st,
	})
	if err != nil {
		fs.Close()
		return nil, err
	}
	if err := m.Attach(f); err != nil {
		fs.Close()
		return nil, err
	}
	var wal *storage.WAL
	replayedBatches, replayedMutations := 0, 0
	if wantWAL {
		// Replay the committed tail before the WAL is attached, so the
		// re-executed mutations are not logged again.
		after := uint64(0)
		if ck != nil {
			after = ck.EndLSN
		}
		replayedBatches, replayedMutations, err = replayWAL(m, f, walRecs, after)
		if err != nil {
			fs.Close()
			return nil, fmt.Errorf("ccam: wal replay: %w", err)
		}
		wal, err = storage.OpenWAL(walDir, opts.SyncPolicy, 0)
		if err != nil {
			fs.Close()
			return nil, err
		}
		if opts.SyncLatency > 0 {
			wal.SetSyncLatency(opts.SyncLatency)
		}
		if fs.Flags()&storage.FlagWAL == 0 {
			if err := fs.SetFlag(storage.FlagWAL); err != nil {
				wal.Close()
				fs.Close()
				return nil, err
			}
		}
		f.AttachWAL(wal, fs)
		// Converge: make the replayed state the new checkpoint and prune
		// the log, so the next crash recovers without re-replaying.
		if err := f.Checkpoint(); err != nil {
			wal.Close()
			fs.Close()
			return nil, err
		}
	}
	var obs *observability
	var tracer *metrics.Tracer
	if opts.TraceCapacity > 0 {
		tracer = metrics.NewTracer(opts.TraceCapacity)
	}
	if opts.Metrics {
		obs = newObservability(metrics.NewRegistry(), tracer)
		if wal != nil {
			wal.Instrument(obs.walInstrumentation())
			obs.reg.Counter("ccam_wal_replayed_batches_total").Add(int64(replayedBatches))
			obs.reg.Counter("ccam_wal_replayed_mutations_total").Add(int64(replayedMutations))
		}
	}
	if obs != nil || tracer != nil {
		var reg *metrics.Registry
		if obs != nil {
			reg = obs.reg
		}
		f.EnableMetrics(reg, tracer)
	}
	if obs != nil {
		// Access weights are not persisted: every edge weighs 1 after a
		// reopen, so WCRR == CRR until the store is rebuilt.
		obs.setGauges(f)
	}
	// Discard recovery's and replay's I/O so counters start clean.
	if err := f.ResetIO(); err != nil {
		fs.Close()
		return nil, err
	}
	s := &Store{
		m: m, fs: fs, parallelism: opts.Parallelism, obs: obs, tracer: tracer,
		wal: wal, checkpointBytes: opts.CheckpointBytes, applyFaultHook: opts.applyFaultHook,
		replayedBatches: replayedBatches, replayedMutations: replayedMutations,
	}
	if s.checkpointBytes == 0 {
		s.checkpointBytes = defaultCheckpointBytes
	}
	if opts.BackgroundReorg {
		if err := s.startReorganizer(opts); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// RouteUnitAggregate is the result of an aggregate query over a
// route-unit (a named collection of arcs, e.g. a bus route).
type RouteUnitAggregate = netfile.RouteUnitAggregate

// EvaluateRouteUnit retrieves all nodes and edges of a route-unit and
// aggregates the member edges' costs — the paper's motivating
// decision-support query (comparing ridership or flow across named
// routes).
func (s *Store) EvaluateRouteUnit(name string, members [][2]NodeID) (RouteUnitAggregate, error) {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return RouteUnitAggregate{}, err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.evaluateRouteUnit, f)
		agg, err := f.EvaluateRouteUnit(name, members)
		sn.end(err)
		return agg, err
	}
	return f.EvaluateRouteUnit(name, members)
}

// Scan visits every stored record, page by page (a sequential scan). fn
// returning false stops early.
func (s *Store) Scan(fn func(rec *Record) bool) error {
	s.mu.RLock()
	defer s.mu.RUnlock()
	f, err := s.file()
	if err != nil {
		return err
	}
	if s.obs != nil {
		sn := s.obs.beginOp(s.obs.scan, f)
		err := f.Scan(fn)
		sn.end(err)
		return err
	}
	return f.Scan(fn)
}
