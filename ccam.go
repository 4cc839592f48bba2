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
// The paper's operations take a context first; callers without one pass
// context.Background().
//
// A Store is always a CCAM file. The paper's comparison access methods
// (DFS-AM, BFS-AM, WDFS-AM and the Grid File) live in the experiment
// harness: cmd/ccam-bench, over internal/bench, regenerates every table
// and figure of the paper.
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

	"ccam/internal/buffer"
	iccam "ccam/internal/ccam"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/metrics"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/query"
	"ccam/internal/storage"
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
	// ErrNodeExists reports an insert (direct or batched) of a node
	// that is already stored.
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
	// Prefetch is ignored: the store has no prefetcher (DESIGN.md §6,
	// "The prefetcher is gone"). The field stays only until the
	// benchmark harness, which still sets it, stops doing so.
	Prefetch bool
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
	// Metrics enables the observability registry: per-operation
	// counters and latency histograms, per-class page-access counters
	// (node-index lookups vs CCAM data pages, pool hits vs misses), storage
	// read/write latencies, and gauges of the file's state (CRR/WCRR,
	// pinned snapshots, overflow frames) that read it when scraped.
	// Disabled by default; a disabled store pays one nil check per
	// operation and allocates nothing for instrumentation.
	Metrics bool
	// TraceCapacity, when positive, enables operation tracing: the
	// store keeps the most recent TraceCapacity facade operations, one
	// ring entry each — a ShortestPath is one entry, not one per record
	// it read — holding the operation's name, duration and error, what it
	// counted (index visits, pool hits, misses, write-backs) and a timed
	// span for every physical read. Steps that cost less than a clock
	// read (a pool hit, an index lookup) are counted, not timed.
	// Independent of Metrics.
	TraceCapacity int
	// WAL enables the write-ahead log: every mutation (direct or
	// batched through Apply) is logged before it touches a data page,
	// and OpenPath replays the committed tail after a crash. Requires
	// Path (the log lives in a <Path>.wal directory beside the data
	// file).
	WAL bool
	// SyncPolicy selects when WAL commits are forced to stable
	// storage: SyncGroupCommit (the default) coalesces concurrent
	// committers into one fsync, and a lone writer fsyncs once per
	// commit; SyncNone leaves durability to the OS. Ignored without WAL.
	SyncPolicy SyncPolicy
	// CheckpointBytes bounds the log written since the last checkpoint,
	// which is what a recovery replays: after a commit that takes it
	// past this many bytes, the store checkpoints (images the dirty
	// pages into the log, flushes them and prunes the log) before
	// acknowledging. A checkpoint's own images do not count, so the log
	// on disk holds the last checkpoint plus at most about this much.
	// Zero selects the 4 MiB default.
	CheckpointBytes int64
	// applyFaultHook, when non-nil, is called before each batch op is
	// applied (with the op's index) and aborts the batch when it
	// returns an error. Test-only: it simulates a mid-batch failure.
	applyFaultHook func(opIndex int) error
	// wrapPages, when non-nil, wraps the page file Open creates, below
	// the checksum layer. Test-only: it puts a fault injector under a
	// file-backed store.
	wrapPages func(storage.Store) storage.Store
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
	// SyncNone never fsyncs on commit; a crash can lose acknowledged
	// commits (but never corrupts the store).
	SyncNone = storage.SyncNone
)

// Store is a CCAM file: the paper's access method behind a convenience
// facade. All methods are safe for concurrent use. Every query — Find,
// GetASuccessor, GetSuccessors, EvaluateRoute, RangeQuery, Nearest,
// Has, the batch forms, the graph searches, EvaluateRouteUnit, Scan and
// Query — is snapshot-isolated: it pins the newest committed mutation
// batch and reads page versions and placements as of that batch, so a
// running Apply — including its WAL group-commit fsync and in-lock
// checkpoints — never blocks it and never leaks a half-applied batch
// into its view. Mutations serialize among themselves, and Build,
// ResetIO and Close exclude everything. This departs from the paper's
// one-query-at-a-time cost model on purpose — route-evaluation
// workloads are read-dominated — without changing any per-operation
// page-access count.
type Store struct {
	// structMu is the lifecycle lock: a query holds it shared from pin
	// to unpin; Build, ResetIO and Close, which replace or drop the file
	// and its page versions, hold it exclusively. mu is the writer mutex
	// of the live end: write transactions (Apply, reorganizer rounds),
	// Checkpoint and the live accessors. No query takes mu. Lock order:
	// structMu before mu.
	structMu sync.RWMutex
	mu       sync.Mutex
	m        *iccam.Method
	fs       *storage.FileStore
	// obs is non-nil only when Options.Metrics was set.
	obs    *observability
	tracer *metrics.Tracer
	// closed is written under both structMu and mu, so holding either
	// is enough to observe it.
	closed bool
	// wal is the store's write-ahead log (nil without Options.WAL).
	// It is attached to the data file after Build/OpenPath, switching
	// the buffer pool to no-steal and deferring page frees to the next
	// checkpoint.
	wal             *storage.WAL
	checkpointBytes int64
	// failed poisons the store after a write transaction fails past its
	// begin: the in-memory state no longer matches any committed WAL
	// prefix, so every subsequent operation fails with this error until
	// the store is reopened (recovery restores the last committed
	// state). It is an atomic pointer because queries check it without
	// holding mu while a writer sets it under mu.
	failed atomic.Pointer[error]
	// replayedBatches/replayedMutations count what OpenPath recovered
	// from the WAL tail.
	replayedBatches   int
	replayedMutations int
	applyFaultHook    func(int) error
	// reorg is the state of the reorganization rounds Poke runs.
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
func (s *Store) poison(what string, cause error) {
	err := fmt.Errorf("%w: %s failed, reopen to recover: %v", ErrClosed, what, cause)
	s.failed.CompareAndSwap(nil, &err)
}

// Name identifies the store's method: "ccam-s" (the static create) or
// "ccam-d" (the dynamic create, Options.Dynamic).
func (s *Store) Name() string { return s.m.Name() }

// --- assembly: one way to build a Store ---

// newStore assembles a Store: it creates the tracer and the registry,
// the unbuilt CCAM method over the file options they yield and the
// reorganizer, then has open, when non-nil, finish what differs between
// creating a store and reopening one (open may adopt a WAL). fs and st
// are the page file of a file-backed store; newStore owns them from
// here on and closes them — and an adopted WAL — when assembly fails.
func newStore(opts Options, fs *storage.FileStore, st storage.Store, open func(s *Store, fo netfile.Options) error) (*Store, error) {
	s := &Store{fs: fs, checkpointBytes: opts.CheckpointBytes, applyFaultHook: opts.applyFaultHook}
	if s.checkpointBytes == 0 {
		s.checkpointBytes = defaultCheckpointBytes
	}
	if opts.TraceCapacity > 0 {
		s.tracer = metrics.NewTracer(opts.TraceCapacity)
	}
	if opts.Metrics {
		s.obs = newObservability(s)
	}
	s.reorg = &reorganizer{s: s, maxPages: reorgMaxPages, drop: reorgTriggerDrop}
	fo := s.fileOptions(opts, st)
	var err error
	if s.m, err = newMethod(opts, fo); err == nil && open != nil {
		err = open(s, fo)
	}
	if err != nil {
		if s.wal != nil {
			s.wal.Close()
		}
		if fs != nil {
			fs.Close()
		}
		return nil, err
	}
	return s, nil
}

// fileOptions is the one translation of Options into the data file's
// configuration: OpenPath reopens the file with the value a later Build
// re-creates it with. A page store's own page size wins over
// Options.PageSize.
func (s *Store) fileOptions(opts Options, st storage.Store) netfile.Options {
	fo := netfile.Options{
		PageSize:   opts.PageSize,
		PoolPages:  opts.PoolPages,
		PoolShards: opts.PoolShards,
		Store:      st,
		Metrics:    s.Metrics(),
	}
	if st != nil {
		fo.PageSize = st.PageSize()
	}
	return fo
}

// newMethod returns an unbuilt CCAM access method whose Build creates
// its file from fo. A static create clusters with the multilevel
// partitioner: on road maps it reaches ratio cut's CRR, within noise,
// in a third to a half of the time, and is ahead on every 65k-node map
// measured (BENCH_build_scale.json; EXPERIMENTS.md, "Create's
// partitioner"). Reorganizations recluster with ratio cut either way.
func newMethod(opts Options, fo netfile.Options) (*iccam.Method, error) {
	return iccam.New(iccam.Config{
		File:        fo,
		Partitioner: &partition.Multilevel{},
		Seed:        opts.Seed,
		Dynamic:     opts.Dynamic,
	})
}

// adoptWAL makes wal the store's log, instrumented under Metrics.
func (s *Store) adoptWAL(wal *storage.WAL) {
	s.wal = wal
	if s.obs != nil {
		s.obs.instrumentWAL(wal)
	}
}

// Open creates a new, empty CCAM store.
func Open(opts Options) (*Store, error) {
	if opts.PageSize == 0 {
		opts.PageSize = 2048
	}
	if opts.WAL && opts.Path == "" {
		return nil, errors.New("ccam: Options.WAL requires Options.Path")
	}
	var (
		fs *storage.FileStore
		st storage.Store
	)
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
		fs, st = inner, cs
		if opts.wrapPages != nil {
			if st, err = storage.NewCheckedStore(opts.wrapPages(inner)); err != nil {
				inner.Close()
				return nil, err
			}
		}
	}
	return newStore(opts, fs, st, func(s *Store, _ netfile.Options) error {
		if !opts.WAL {
			return nil
		}
		wal, err := storage.CreateWAL(storage.WALDir(opts.Path), opts.SyncPolicy, 0)
		if err != nil {
			return err
		}
		s.adoptWAL(wal)
		return nil
	})
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
	wantWAL := opts.WAL || haveWALDir || fs.Flags()&storage.FlagWAL != 0
	return newStore(opts, fs, st, func(s *Store, fo netfile.Options) error {
		f, err := netfile.OpenFromStoreOpts(st, fo)
		if err != nil {
			return err
		}
		if err := s.m.Attach(f); err != nil {
			return err
		}
		if wantWAL {
			// Replay the committed tail before the WAL is attached, so the
			// re-executed mutations are not logged again.
			after := uint64(0)
			if ck != nil {
				after = ck.EndLSN
			}
			s.replayedBatches, s.replayedMutations, err = replayWAL(s.m, walRecs, after)
			if err != nil {
				return fmt.Errorf("ccam: wal replay: %w", err)
			}
			wal, err := storage.OpenWAL(walDir, opts.SyncPolicy, 0)
			if err != nil {
				return err
			}
			s.adoptWAL(wal)
			if fs.Flags()&storage.FlagWAL == 0 {
				if err := fs.SetFlag(storage.FlagWAL); err != nil {
					return err
				}
			}
			f.AttachWAL(wal, fs)
			// Converge: make the replayed state the new checkpoint and prune
			// the log, so the next crash recovers without re-replaying.
			if err := f.Checkpoint(); err != nil {
				return err
			}
		}
		if s.obs != nil && s.wal != nil {
			s.obs.reg.CounterFunc("ccam_wal_replayed_batches_total", func() int64 { return int64(s.replayedBatches) })
			s.obs.reg.CounterFunc("ccam_wal_replayed_mutations_total", func() int64 { return int64(s.replayedMutations) })
		}
		// Discard recovery's and replay's I/O so counters start clean.
		return f.ResetIO()
	})
}

// --- lifecycle: Build, ResetIO, Checkpoint, Close ---

// lockExclusive takes the lifecycle lock and then the writer mutex: the
// caller excludes every query and every writer.
func (s *Store) lockExclusive() {
	s.structMu.Lock()
	s.mu.Lock()
}

func (s *Store) unlockExclusive() {
	s.mu.Unlock()
	s.structMu.Unlock()
}

// Build loads network g into the store (the paper's Create()),
// replacing any previous contents. With a WAL, the log is reset first
// and a checkpoint is taken after the load: Build itself is not
// crash-atomic (a crash mid-Build leaves neither the old nor the new
// contents recoverable), but once Build returns the loaded network is
// durable and every later Apply is. Build replaces the file wholesale
// and resets the version layer: any Store.Snapshot the caller still
// holds must be closed first.
//
// A network holding the reserved id graph.InvalidNodeID is refused
// before anything is touched, and the old contents keep serving. A
// failure once the load has begun poisons the store like a failed
// Apply: later calls fail, and Close persists nothing.
func (s *Store) Build(g *Network) error {
	s.lockExclusive()
	defer s.unlockExclusive()
	if s.closed {
		return ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return err
	}
	// The new contents start a fresh CRR high-water mark.
	s.reorg.highwater = 0
	// Build's account times it and counts nothing: the file that would
	// count is the one Build creates.
	var a opAccount
	s.beginAccount(context.Background(), opBuild, &a)
	err := s.buildLocked(g)
	s.endAccount(&a, err)
	return err
}

func (s *Store) buildLocked(g *Network) error {
	if g.HasNode(graph.InvalidNodeID) {
		return fmt.Errorf("ccam: build: node id %d is reserved", graph.InvalidNodeID)
	}
	if s.wal != nil {
		// Build replaces the file wholesale; stale log records must not
		// be replayed over the new contents, so the log restarts empty
		// (at a monotonically advanced LSN) before any page is written.
		// A failed reset touched no page, and the log keeps its error.
		if err := s.wal.Reset(); err != nil {
			return err
		}
	}
	// The load replaces the file: from here on the old contents are
	// gone, and a failure leaves a half-built file with no log attached.
	err := s.m.Build(g)
	if err == nil && s.wal != nil {
		f := s.m.File()
		f.AttachWAL(s.wal, s.fs)
		err = f.Checkpoint()
	}
	if err != nil {
		s.poison("build", err)
	}
	return err
}

var errEmpty = errors.New("ccam: store is empty; call Build first")

// file returns the data file of an open, healthy, built store. The
// caller holds structMu or mu.
func (s *Store) file() (*netfile.File, error) {
	if s.closed {
		return nil, ErrClosed
	}
	if err := s.failedErr(); err != nil {
		return nil, err
	}
	f := s.m.File()
	if f == nil {
		return nil, errEmpty
	}
	return f, nil
}

// ResetIO empties the buffer pool and zeroes the I/O counters, so the
// next operation is measured cold. Emptying the pool drops the page
// versions queries read, so it excludes them, like Build.
func (s *Store) ResetIO() error {
	s.lockExclusive()
	defer s.unlockExclusive()
	f, err := s.file()
	if err != nil {
		return err
	}
	return f.ResetIO()
}

// persist makes the buffered state durable: with a WAL a checkpoint
// (dirty pages imaged into the log, flushed, the log pruned to its last
// complete checkpoint), else a flush and, file-backed, a sync. Caller
// holds mu.
func (s *Store) persist(f *netfile.File) error {
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

// Checkpoint makes the buffered state durable. With a WAL it forces a
// checkpoint: dirty pages are imaged into the log, flushed to the data
// file, deferred page frees are executed and the log is pruned to its
// last complete checkpoint. Without one it writes every dirty page to
// the underlying store and syncs the page file when the store is
// file-backed.
func (s *Store) Checkpoint() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file()
	if err != nil {
		return err
	}
	return s.persist(f)
}

// Close flushes (checkpoints, with a WAL) and releases the store. IO()
// keeps answering afterwards. A poisoned store closes without
// flushing: its memory state is not trustworthy, and the next OpenPath
// recovers the last committed state from the log.
func (s *Store) Close() error {
	s.lockExclusive()
	defer s.unlockExclusive()
	if s.closed {
		return nil
	}
	if f := s.m.File(); f != nil && s.failedErr() == nil {
		if err := s.persist(f); err != nil {
			return err
		}
	}
	s.closed = true
	var firstErr error
	if s.wal != nil {
		firstErr = s.wal.Close()
	}
	if s.fs != nil {
		if err := s.fs.Close(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	return firstErr
}

// --- the read bracket: every query runs on a pinned view ---

// readView is one query's bracket: the lifecycle lock held shared, the
// newest committed LSN pinned, and — when the query is charged to
// anybody — the account its reads count into. It is a plain value over
// netfile's value-form View, so opening, using and ending it allocates
// nothing.
type readView struct {
	s *Store
	// f is the file the view is pinned on, which releases the pin.
	f    *netfile.File
	view netfile.View
	// acct is nil while nobody is charged: the view then counts into
	// nothing. It is borrowed from accountPool, not held by value: the
	// view carries a pointer to it beside its *File, and the compiler,
	// which tracks a struct's pointers as one, would move a readView that
	// held it to the heap on every query.
	acct *opAccount
}

// accountPool recycles the accounts of charged queries.
var accountPool = sync.Pool{New: func() any { return new(opAccount) }}

// beginRead opens the bracket *v for operation op (opNone: charged to
// nobody). It takes structMu shared — which no writer holds while it
// works, so the query starts immediately — and pins the newest
// committed LSN. On success the caller must call v.end exactly once.
// A Find is short enough for the bracket's own cost to show: it is
// filled in place, in the caller's frame, and with Metrics and tracing
// off it takes no account and reads no clock.
func (s *Store) beginRead(ctx context.Context, op opKind, v *readView) error {
	s.structMu.RLock()
	f, err := s.file()
	if err != nil {
		s.structMu.RUnlock()
		return err
	}
	v.s, v.f, v.view = s, f, f.PinView()
	if s.charges(op) {
		v.charge(ctx, op)
	}
	return nil
}

// charge gives the bracket an account — from here on the view's reads
// are counted — and charges it to operation op.
func (v *readView) charge(ctx context.Context, op opKind) {
	v.acct = accountPool.Get().(*opAccount)
	*v.acct = opAccount{}
	v.view = v.view.Charging(&v.acct.Account)
	v.s.beginAccount(ctx, op, v.acct)
}

// end closes the bracket: it charges the operation's instruments, the
// request's ReqStats and the trace ring with what the query cost and
// how it ended (*err, read when end runs so it can be deferred), unpins
// and unlocks.
func (v *readView) end(err *error) {
	if v.acct != nil {
		v.s.endAccount(v.acct, *err)
		accountPool.Put(v.acct)
	}
	v.f.Unpin(v.view)
	v.s.structMu.RUnlock()
}

// Snapshot pins the newest committed mutation batch and returns a
// read-only view of the store as of that batch: a reader holding it
// sees neither later Apply commits nor reorganization rounds, no
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
func (s *Store) Find(ctx context.Context, id NodeID) (rec *Record, err error) {
	var v readView
	if err = s.beginRead(ctx, opFind, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	return v.view.FindCtx(ctx, id)
}

// GetASuccessor retrieves the record of succ, a successor of cur. It is
// handed cur as a record, not as a position in the file, so it is a
// Find of succ: the paper's "the buffered page containing cur is
// searched first" holds as a buffer-pool hit when the two are
// co-located. GetSuccessors and EvaluateRoute hold their position
// between hops and read a co-located successor in place, with no pool
// request at all. The context is checked before the fetch.
func (s *Store) GetASuccessor(ctx context.Context, cur *Record, succ NodeID) (rec *Record, err error) {
	if err := ctx.Err(); err != nil {
		return nil, err
	}
	var v readView
	if err = s.beginRead(ctx, opGetASuccessor, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	return v.view.GetASuccessor(cur, succ)
}

// GetSuccessors retrieves the records of all successors of a node.
// The context is checked before the node's own fetch and before each
// successor fetch.
func (s *Store) GetSuccessors(ctx context.Context, id NodeID) (recs []*Record, err error) {
	var v readView
	if err = s.beginRead(ctx, opGetSuccessors, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	return v.view.GetSuccessorsCtx(ctx, id)
}

// EvaluateRoute computes the aggregate property of a route as a Find
// followed by Get-A-successor operations. The context is checked
// before each hop's record fetch, so canceling it stops a long route
// without paying for the remaining page reads.
func (s *Store) EvaluateRoute(ctx context.Context, route Route) (agg RouteAggregate, err error) {
	var v readView
	if err = s.beginRead(ctx, opEvaluateRoute, &v); err != nil {
		return RouteAggregate{}, err
	}
	defer v.end(&err)
	return v.view.EvaluateRouteCtx(ctx, route)
}

// RangeQuery returns all records whose positions lie inside rect, via
// the secondary spatial index. The candidates are read as one set, each
// data page fetched once, and the records returned share one
// allocation. The context is checked before each page's fetch, so
// canceling it stops the query without paying for the remaining page
// reads.
func (s *Store) RangeQuery(ctx context.Context, rect Rect) (recs []*Record, err error) {
	var v readView
	if err = s.beginRead(ctx, opRangeQuery, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	return v.view.RangeQueryCtx(ctx, rect)
}

// Nearest returns the k stored records closest to p by Euclidean
// distance, nearest first: expanding-window searches through the
// Z-order spatial index, the result radius verified so the answer is
// exact. The context is checked before each page's fetch.
func (s *Store) Nearest(ctx context.Context, p Point, k int) (recs []*Record, err error) {
	var v readView
	if err = s.beginRead(ctx, opNearest, &v); err != nil {
		return nil, err
	}
	defer v.end(&err)
	return v.view.Nearest(ctx, p, k)
}

// Has reports whether a node is stored. Failures are not conflated with
// "absent": an unbuilt store or an index error comes back as a non-nil
// error. The context is checked before the index probe.
func (s *Store) Has(ctx context.Context, id NodeID) (ok bool, err error) {
	if err := ctx.Err(); err != nil {
		return false, err
	}
	var v readView
	if err = s.beginRead(ctx, opNone, &v); err != nil {
		return false, err
	}
	defer v.end(&err)
	return v.view.Has(id), nil
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

// ShortestPath computes a cheapest path between two stored nodes over
// the file (Get-successors expansions). With minCostPerUnit > 0 it runs
// A* under a straight-line-distance heuristic scaled by minCostPerUnit,
// a lower bound on edge cost per unit of Euclidean distance; 0 runs
// Dijkstra. The context is checked before each record fetch.
func (s *Store) ShortestPath(ctx context.Context, src, dst NodeID, minCostPerUnit float64) (p Path, err error) {
	var v readView
	if err = s.beginRead(ctx, opShortestPath, &v); err != nil {
		return Path{}, err
	}
	defer v.end(&err)
	return query.ShortestPath(ctx, v.view, src, dst, minCostPerUnit)
}

// EvaluateTour evaluates a closed tour (the route plus the edge back to
// its start). The context is checked before each hop's fetch.
func (s *Store) EvaluateTour(ctx context.Context, tour Route) (agg TourAggregate, err error) {
	var v readView
	if err = s.beginRead(ctx, opEvaluateTour, &v); err != nil {
		return TourAggregate{}, err
	}
	defer v.end(&err)
	return query.EvaluateTour(ctx, v.view, tour)
}

// LocationAllocation allocates every reachable node to its cheapest
// facility by network distance, returning the allocations plus the
// total and maximum assignment costs. The context is checked before
// each record fetch.
func (s *Store) LocationAllocation(ctx context.Context, facilities []NodeID) (allocs []Allocation, total, max float64, err error) {
	var v readView
	if err = s.beginRead(ctx, opLocationAllocation, &v); err != nil {
		return nil, 0, 0, err
	}
	defer v.end(&err)
	return query.LocationAllocation(ctx, v.view, facilities)
}

// RouteUnitAggregate is the result of an aggregate query over a
// route-unit (a named collection of arcs, e.g. a bus route).
type RouteUnitAggregate = netfile.RouteUnitAggregate

// EvaluateRouteUnit retrieves all nodes and edges of a route-unit and
// aggregates the member edges' costs — the paper's motivating
// decision-support query (comparing ridership or flow across named
// routes). The context is checked before each record's fetch.
func (s *Store) EvaluateRouteUnit(ctx context.Context, name string, members [][2]NodeID) (agg RouteUnitAggregate, err error) {
	var v readView
	if err = s.beginRead(ctx, opEvaluateRouteUnit, &v); err != nil {
		return RouteUnitAggregate{}, err
	}
	defer v.end(&err)
	return v.view.EvaluateRouteUnit(ctx, name, members)
}

// Scan visits every stored record, page by page (a sequential scan). fn
// returning false stops early. fn runs inside the query's bracket: it
// may call other queries and Apply, but not Build, ResetIO or Close.
func (s *Store) Scan(fn func(rec *Record) bool) (err error) {
	var v readView
	if err = s.beginRead(context.Background(), opScan, &v); err != nil {
		return err
	}
	defer v.end(&err)
	return v.view.Scan(fn)
}

// --- the live end: accessors under the writer mutex ---

// live runs fn under the writer mutex with the live file — nil when
// the store is closed, poisoned or not built yet.
func (s *Store) live(fn func(f *netfile.File)) {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, _ := s.file()
	fn(f)
}

// Len returns the number of stored node records.
func (s *Store) Len() (n int) {
	s.live(func(f *netfile.File) {
		if f != nil {
			n = f.NumNodes()
		}
	})
	return n
}

// NumPages returns the number of data pages in the file.
func (s *Store) NumPages() (n int) {
	s.live(func(f *netfile.File) {
		if f != nil {
			n = f.NumPages()
		}
	})
	return n
}

// Placement returns the current node → data page assignment.
func (s *Store) Placement() Placement {
	p := Placement{}
	s.live(func(f *netfile.File) {
		if f != nil {
			p = f.Placement()
		}
	})
	return p
}

// Verify checks the store's invariants: the data file's own
// (netfile.File.Check: page images, free-space map, node and Z-order
// indexes, successor- and predecessor-lists, PAG summary) and the
// facade's — every write left its mutation settled. A closed, poisoned or
// unbuilt store fails with the error its queries get. Verify holds the
// writer mutex while it reads every page once; crash drills run it
// after each recovery.
func (s *Store) Verify() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	f, err := s.file()
	if err != nil {
		return err
	}
	if n := f.SettlePAG(); n != 0 {
		return fmt.Errorf("ccam: verify: %w: %d touched node(s) left unsettled", netfile.ErrInconsistent, n)
	}
	return f.Check()
}

// CRR measures the store's Connectivity Residue Ratio against network
// g.
func (s *Store) CRR(g *Network) float64 { return CRR(g, s.Placement()) }

// WCRR measures the store's Weighted Connectivity Residue Ratio
// against network g.
func (s *Store) WCRR(g *Network) float64 { return WCRR(g, s.Placement()) }

// IO returns the physical data-page I/O counters: the page reads,
// writes, allocations and frees the file's buffer pool made against the
// page store, each counted once by the pool — a read when issued,
// failed ones included, so Reads equals the pool's misses. The snapshot
// is consistent under concurrent readers: every counter is an atomic
// load, so no field is ever torn mid-increment. The counters are the
// file's own, so a poisoned store reports them too, a closed one what
// its file did up to Close, and an unbuilt one zero; a Build starts a
// new file, and ResetIO zeroes them.
func (s *Store) IO() (st IOStats) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if f := s.m.File(); f != nil {
		st = f.DataIO()
	}
	return st
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
