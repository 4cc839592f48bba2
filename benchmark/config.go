package main

import (
	"time"

	"ccam"
)

// Everything a result depends on besides the code under test is a
// constant in this file, and is recorded in the result envelope. None
// of it varies between the two sides of a comparison.

const (
	// mapSeed fixes the road map: -seed moves the op stream only.
	mapSeed = 169
	// partitionSeed is Options.Seed of every store the harness builds.
	partitionSeed = 1
	pageSize      = 2048
	// routeNodes is the length of every route: 33 nodes, 32 hops.
	routeNodes = 33
	// routeCount routes are drawn once per seed; clients pick among
	// them by Zipf rank, so a few routes are hot.
	routeCount = 2048
	// windowNodes is the expected number of nodes inside a RangeQuery
	// window.
	windowNodes = 30
	// Key, route and window popularity is Zipf: rank k is drawn with
	// probability proportional to (v+k)^-zipfS. The offset v flattens
	// the very top of the head so that no single node or route carries a
	// tenth of the load and a seed's luck in drawing them does not set a
	// median: the hottest key gets 2% of the point ops, the hottest
	// hundred 39%, the hottest thousand 65%; routes are flatter.
	zipfS      = 1.1
	zipfKeyV   = 8
	zipfRouteV = 64
	// batchOps is the size of every Apply batch.
	batchOps = 32
	// readers is the number of closed-loop reader goroutines of an
	// in-process workload. It is 1, not nproc: the sandbox's two CPUs
	// share their caches, and a second client buys 1.15x the throughput
	// at three times the run-to-run spread (see README.md). mixed_rw
	// adds its writer, so it has nproc load-generating goroutines.
	readers = 1
	// connections is the number of pipelined connections to the served
	// store; each has a sending and a receiving goroutine.
	connections = 2
	// pipelineDepth bounds the requests one served connection keeps in
	// flight during the closed-loop saturation phase.
	pipelineDepth = 16
	// pingGap is the pause between two Pings of the traced served run's
	// transport probe (see pingWhile): some 300 Pings beside the mid
	// rung, 3% more load on it.
	pingGap = 4 * time.Millisecond
	// selfcheckRuns is the number of runs per set and workload of
	// -selfcheck.
	selfcheckRuns = 3
	// maxLateShare and maxUnattributed are the limits beyond which a
	// run is flagged as not measuring what its metrics are named for:
	// the open-loop generator's median lateness as a share of the
	// mid-rate find_p50_us, and the part of the Find median the budget's
	// rows leave unexplained.
	maxLateShare    = 0.10
	maxUnattributed = 0.20
	// flushPolicy names how commits reach the device, for the envelope.
	flushPolicy = "WAL on, SyncGroupCommit, real fsync, no simulated latency"
)

// scale sizes the fixture and the fixed-count parts of a run.
type scale struct {
	Name string `json:"name"`
	// Side is Rows = Cols of the road-map lattice.
	Side int `json:"side"`
	// ResidentPool holds the whole file; ColdPool about 3% of its data
	// pages; MixedPool about a quarter.
	ResidentPool int   `json:"resident_pool"`
	ColdPool     int   `json:"cold_pool"`
	MixedPool    int   `json:"mixed_pool"`
	MixedCkpt    int64 `json:"mixed_checkpoint_bytes"`
	// Setups is how many times a run sets up; setup_s is their median
	// and the window is measured on the last.
	Setups int `json:"setups"`
	// TailBatches is the length of the write tail (see workload).
	TailBatches int `json:"tail_batches"`
	// Warmup is run before the measured window.
	Warmup time.Duration `json:"warmup_ns"`
	// ServeRates are the frozen aggregate open-loop rates lo/mid/hi in
	// requests per second: about 20/40/70% of the open-loop capacity
	// (the highest ladder rung whose p99 met P99LimitUS, 11,000 req/s)
	// measured once when the benchmark was defined.
	ServeRates [3]int `json:"serve_rates"`
	// P99LimitUS is the frozen latency limit of server.max_rate_ok.
	P99LimitUS float64 `json:"p99_limit_us"`
	// TraceOps is the op count of a traced replay, TraceBatches the
	// batch count of the traced write replay.
	TraceOps     int `json:"trace_ops"`
	TraceBatches int `json:"trace_batches"`
	// RefWindow is the traced run's untraced reference window and
	// LadderPhase the length of each rung of its rate ladder.
	RefWindow   time.Duration `json:"ref_window_ns"`
	LadderPhase time.Duration `json:"ladder_phase_ns"`
}

var fullScale = scale{
	Name: "full", Side: 256,
	ResidentPool: 8192, ColdPool: 128, MixedPool: 1024, MixedCkpt: 256 << 10,
	Setups: 3, TailBatches: 1000, Warmup: time.Second,
	ServeRates: [3]int{2000, 4500, 8000}, P99LimitUS: 10000,
	TraceOps: 20000, TraceBatches: 500, RefWindow: 3 * time.Second, LadderPhase: 1500 * time.Millisecond,
}

// smokeScale is the -smoke configuration: a ~2k-node map and short
// fixed parts, so tests run every workload end to end in seconds.
var smokeScale = scale{
	Name: "smoke", Side: 48,
	ResidentPool: 512, ColdPool: 8, MixedPool: 64, MixedCkpt: 64 << 10,
	Setups: 2, TailBatches: 20, Warmup: 100 * time.Millisecond,
	ServeRates: [3]int{1000, 2000, 4000}, P99LimitUS: 5000,
	TraceOps: 2000, TraceBatches: 20, RefWindow: 300 * time.Millisecond, LadderPhase: 300 * time.Millisecond,
}

// workload is one set of inputs. Every workload runs the same op
// stream (netmix); they differ in where the store lives, how much of
// it is buffered and whether a writer runs beside the readers.
type workload struct {
	Name string
	Why  string
	// pool returns the buffer pool capacity at a scale (0: the served
	// daemon's own default).
	pool func(scale) int
	// checkpointBytes is Options.CheckpointBytes (0: the default).
	checkpointBytes func(scale) int64
	// writer runs the batch writer beside the reader for the whole
	// window; otherwise it runs alone, as a tail after the window.
	writer bool
	// served drives the commit's own ccam-serve over loopback.
	served bool
}

var workloads = []workload{
	{
		Name: "read_resident",
		Why:  "netmix, 1 closed-loop in-process reader, pool holds the whole file: all time is CPU in facade, btree, buffer hit path and record decode; storage and the miss path do nothing",
		pool: func(s scale) int { return s.ResidentPool },
	},
	{
		Name: "read_coldpool",
		Why:  "same stream and reader, pool is 3% of the data pages: buffer miss/evict, storage read + CRC and clustering quality (pages per route) do most of the work",
		pool: func(s scale) int { return s.ColdPool },
	},
	{
		Name:            "mixed_rw",
		Why:             "a closed-loop writer commits 32-op Apply batches beside a closed-loop netmix reader: WAL, version publication, write-back and checkpoints show as writer cost and reader tails",
		pool:            func(s scale) int { return s.MixedPool },
		checkpointBytes: func(s scale) int64 { return s.MixedCkpt },
		writer:          true,
	},
	{
		Name:   "serve_open",
		Why:    "netmix over the binary protocol to the commit's own ccam-serve child: open loop at a fixed rate in turn with closed-loop saturation; the only workload that crosses wire and server",
		pool:   func(scale) int { return 0 },
		served: true,
	},
}

func findWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.Name == name {
			return w, true
		}
	}
	return workload{}, false
}

// storeOptions are the options of every in-process store.
func storeOptions(path string, w workload, sc scale) ccam.Options {
	o := ccam.Options{
		PageSize:  pageSize,
		PoolPages: w.pool(sc),
		Path:      path,
		WAL:       true,
		Seed:      partitionSeed,
	}
	if w.checkpointBytes != nil {
		o.CheckpointBytes = w.checkpointBytes(sc)
	}
	return o
}

// metricDef names one metric; BENCHMARK.json repeats the end-to-end
// ones with their bounds, and a test keeps the two in step.
type metricDef struct {
	Name, Unit string
}

// endToEnd lists the metrics every untraced run reports, in print
// order. See README.md for what each means on each workload.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"ops_per_s", "1/s"},
	{"find_p50_us", "us"},
	{"route_p50_us", "us"},
	{"apply_p50_us", "us"},
	{"apply_ops_per_s", "1/s"},
	{"rss_peak_mb", "MiB"},
	{"space_amp", "ratio"},
}

// perLayer lists the metrics every traced run reports. A workload that
// does not cross a layer reports 0 for that layer's metrics.
var perLayer = []metricDef{
	{"storage.reads_per_op", "count"},
	{"storage.read_ns_p50", "ns"},
	{"storage.checksum_ns_per_page", "ns"},
	{"storage.writes_per_batch", "count"},
	{"storage.wal_bytes_per_user_byte", "ratio"},
	{"storage.wal_fsyncs_per_batch", "count"},
	{"storage.wal_append_ns_p50", "ns"},
	{"storage.wal_commit_ns_p50", "ns"},
	{"storage.checkpoint_ms", "ms"},
	{"storage.recover_ms", "ms"},
	{"buffer.hit_ratio", "ratio"},
	{"buffer.fetch_hit_ns_p50", "ns"},
	{"buffer.fetch_miss_ns_p50", "ns"},
	{"buffer.evictions_per_op", "count"},
	{"btree.get_ns_p50", "ns"},
	{"btree.pages_per_get", "count"},
	{"btree.put_ns_p50", "ns"},
	{"netfile.decode_ns_p50", "ns"},
	{"netfile.decode_allocs_per_op", "count"},
	{"netfile.find_ns_p50", "ns"},
	{"netfile.successors_ns_p50", "ns"},
	{"netfile.route_ns_per_hop", "ns"},
	{"netfile.pages_per_route", "count"},
	{"netfile.pages_per_route_model", "count"},
	{"netfile.bulkload_s", "s"},
	{"partition.cluster_s", "s"},
	{"ccam.crr", "ratio"},
	{"ccam.wcrr", "ratio"},
	{"ccam.fill_ratio", "ratio"},
	{"ccam.crr_after_writes", "ratio"},
	{"ccam.find_overhead_ns", "ns"},
	{"ccam.find_allocs_per_op", "count"},
	{"ccam.find_bytes_per_op", "bytes"},
	{"ccam.succ_allocs_per_op", "count"},
	{"ccam.route_allocs_per_hop", "count"},
	{"ccam.metrics_on_ratio", "ratio"},
	{"ccam.apply_ns_per_op", "ns"},
	{"query.parse_ns_p50", "ns"},
	{"query.plan_ns_p50", "ns"},
	{"query.exec_ns_p50", "ns"},
	{"query.pages_pred_err", "ratio"},
	{"wire.encode_req_ns", "ns"},
	{"wire.decode_req_ns", "ns"},
	{"wire.encode_resp_ns", "ns"},
	{"wire.decode_resp_ns", "ns"},
	{"wire.allocs_per_roundtrip", "count"},
	{"wire.resp_bytes_per_find", "bytes"},
	{"server.dispatch_overhead_ns", "ns"},
	{"server.loopback_overhead_ns", "ns"},
	{"server.cpu_us_per_req", "us"},
	{"server.shed_share", "ratio"},
	{"server.max_rate_ok", "1/s"},
	{"loadgen.late_p50_us", "us"},
	{"loadgen.late_p99_us", "us"},
	{"trace.overhead_ratio", "ratio"},
	{"budget.unattributed_share", "ratio"},
	// Demoted from the end-to-end list (see README.md): two medians and
	// the tails, whose run-to-run spread in this sandbox is wider on some
	// workload than any bound the benchmark may set. Taken, as measured,
	// from the traced run's reference window (the ladder's mid and hi
	// rungs in serve_open).
	{"demoted.succ_p50_us", "us"},
	{"demoted.query_p50_us", "us"},
	{"tail.find_p99_us", "us"},
	{"tail.route_p99_us", "us"},
	{"tail.apply_p99_us", "us"},
	{"tail.hi_rate_p99_us", "us"},
}
