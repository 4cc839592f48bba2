package ccam

// Option is a functional configuration knob for OpenWith. Each With*
// function edits one field of an Options value, so new knobs can be
// added without growing call sites. Open(Options) remains the stable,
// fully-spelled-out form; OpenWith(opts...) is sugar over it and the
// two produce identical stores for equivalent settings.
type Option func(*Options)

// WithPageSize sets the disk block size in bytes (default 2048).
func WithPageSize(n int) Option { return func(o *Options) { o.PageSize = n } }

// WithPoolPages sets the buffer pool capacity in pages (default 32).
func WithPoolPages(n int) Option { return func(o *Options) { o.PoolPages = n } }

// WithPoolShards splits the buffer pool into n independently latched
// shards (0 or 1 keeps the single-latch pool). AutoPoolShards picks a
// value from the machine's parallelism.
func WithPoolShards(n int) Option { return func(o *Options) { o.PoolShards = n } }

// WithDynamic selects the incremental create (CCAM-D).
func WithDynamic() Option { return func(o *Options) { o.Dynamic = true } }

// WithSeed sets the partitioner seed; equal seeds give identical files.
func WithSeed(seed int64) Option { return func(o *Options) { o.Seed = seed } }

// WithPath stores data pages in an os.File-backed page store at path
// instead of in memory.
func WithPath(path string) Option { return func(o *Options) { o.Path = path } }

// WithSpatial selects the secondary spatial index structure.
func WithSpatial(kind SpatialIndexKind) Option {
	return func(o *Options) { o.Spatial = kind }
}

// WithMetrics enables the observability registry: per-operation
// counters and latency histograms, per-class page-access counters and
// CRR/WCRR gauges, exported via Store.Metrics, Store.MetricsHandler and
// ServeMetrics.
func WithMetrics() Option { return func(o *Options) { o.Metrics = true } }

// WithTracing enables operation tracing with a ring buffer of capacity
// recent traces (see Store.Traces). Zero or negative capacities select
// the default ring size.
func WithTracing(capacity int) Option {
	return func(o *Options) {
		if capacity <= 0 {
			capacity = 128
		}
		o.TraceCapacity = capacity
	}
}

// WithWAL enables the write-ahead log: every mutation is logged and
// group-committed before it is acknowledged, and OpenPath replays the
// committed tail after a crash. Requires WithPath.
func WithWAL() Option { return func(o *Options) { o.WAL = true } }

// WithSyncPolicy selects when WAL commits are forced to stable
// storage (SyncGroupCommit or SyncNone). Ignored
// without WithWAL.
func WithSyncPolicy(p SyncPolicy) Option {
	return func(o *Options) { o.SyncPolicy = p }
}

// WithCheckpointBytes bounds the WAL between automatic checkpoints
// (default 4 MiB). Ignored without WithWAL.
func WithCheckpointBytes(n int64) Option {
	return func(o *Options) { o.CheckpointBytes = n }
}

// OpenWith creates a new, empty CCAM store from functional options,
// applied over the zero Options value (so defaults match Open exactly).
func OpenWith(opts ...Option) (*Store, error) {
	var o Options
	for _, opt := range opts {
		opt(&o)
	}
	return Open(o)
}
