// Command ccam-bench regenerates the paper's tables and figures
// (Section 4) and the repository's ablation studies, printing each as a
// plain-text table.
//
// Usage:
//
//	ccam-bench -exp all
//	ccam-bench -exp fig5
//	ccam-bench -exp table5
//	ccam-bench -exp fig6
//	ccam-bench -exp fig7
//	ccam-bench -exp ablation-partitioner
//	ccam-bench -exp ablation-buffer
//	ccam-bench -exp ablation-scale
//	ccam-bench -exp throughput -parallel 8
//	ccam-bench -exp mutation -parallel 8
//	ccam-bench -exp metrics
//	ccam-bench -exp metrics -http :8080
//	ccam-bench -exp build-scale -sizes 4096,65536 -workers 4 -json out.json -check
//	ccam-bench -exp serve -conns 10000 -duration 10s -json out.json -check
//	ccam-bench -exp query -check
//
// Flags -seed, -rows and -cols change the synthetic road map; the
// defaults reproduce the paper-scale Minneapolis map (1079 nodes,
// ~3057 edges). The throughput experiment sweeps the batch-query
// worker pool up to -parallel workers against a simulated disk and is
// not part of -exp all, because it reports wall-clock scaling rather
// than the paper's page-access counts. The mutation experiment (also
// excluded from all) sweeps concurrent writers committing one-op
// batches against the file-backed WAL store under each sync policy,
// showing group commit's fsync coalescing. The metrics experiment drives a
// mixed workload through an instrumented store and prints the
// per-operation registry view (latency quantiles, pages per operation
// by class, buffer hit rate, CRR/WCRR gauges); with -http it then
// keeps serving /metrics, /metrics.json, /traces and /debug/pprof.
// The build-scale experiment (also wall-clock, also excluded from all)
// sweeps network sizes from -sizes and times the Fig. 2 clustering
// under serial ratio-cut, parallel ratio-cut and parallel multilevel;
// -json writes the machine-readable result and -check enforces the
// determinism/quality/speedup regression gates. The serve experiment
// (wall-clock, excluded from all) load-tests the ccam-serve query
// service: it spawns the server in-process over a file-backed store,
// opens -conns binary-protocol connections, drives a mixed read
// workload closed-loop (or open-loop with -rate), reports client and
// server p50/p95/p99 with shed counts, then drains the server and
// verifies the reopen replays no WAL; -addr points it at an external
// server instead. The query experiment (excluded from all) runs one
// CCAM-QL statement per shape, printing the planner's chosen access
// path and predicted data-page accesses next to the cold-pool
// measurement; -check fails the run when any prediction misses by more
// than 30% or the planner collapses onto fewer than three access
// paths.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"ccam/internal/bench"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

func main() {
	exp := flag.String("exp", "all", "experiment: all, fig5, table5, fig6, fig7, ablation-partitioner, ablation-buffer, ablation-scale, ablation-search, ablation-lazy, ablation-topology, ablation-mixed, ablation-spatial, throughput, mutation, metrics, query, mixed, build-scale, pool-scale, serve (the last eight are not part of all)")
	seed := flag.Int64("seed", 42, "workload seed")
	mapSeed := flag.Int64("mapseed", 169, "road map generator seed")
	rows := flag.Int("rows", 0, "override road map lattice rows")
	cols := flag.Int("cols", 0, "override road map lattice cols")
	parallel := flag.Int("parallel", 8, "largest worker-pool size the throughput experiment sweeps")
	httpAddr := flag.String("http", "", "with -exp metrics: keep serving /metrics, /metrics.json, /traces and /debug/pprof on this address after the run")
	sizes := flag.String("sizes", "", "with -exp build-scale: comma-separated node counts to sweep (default 4096,16384,65536,262144); with -exp pool-scale: worker counts (default 1,2,4,8,16)")
	jsonPath := flag.String("json", "", "with -exp build-scale, pool-scale, serve or mixed: also write the result as JSON to this path")
	check := flag.Bool("check", false, "with -exp build-scale, pool-scale, serve, query or mixed: fail unless the experiment's regression gates hold")
	minSpeedup := flag.Float64("min-speedup", 2.0, "with -exp pool-scale -check: required sharded-prefetch over single-latch throughput ratio at peak workers")
	workers := flag.Int("workers", 0, "with -exp build-scale: clustering worker pool for the parallel variants (0 = GOMAXPROCS)")
	conns := flag.Int("conns", 10000, "with -exp serve: concurrent binary-protocol connections")
	duration := flag.Duration("duration", 10e9, "with -exp serve: measured load window; with -exp pool-scale: window per (variant, workers) point; with -exp mixed: the measured window")
	rate := flag.Int("rate", 0, "with -exp serve: open-loop target req/s across all connections (0 = closed loop)")
	addr := flag.String("addr", "", "with -exp serve: load an external ccam-serve binary port instead of an in-process server")
	serveBin := flag.String("serve-bin", "", "with -exp serve: run this ccam-serve binary as a child process instead of serving in-process (doubles the per-process fd budget and exercises the real SIGTERM drain)")
	nodes := flag.Int("nodes", 262144, "with -exp serve or pool-scale: road-map size")
	inflight := flag.Int("max-inflight", 0, "with -exp serve: in-process server admission cap (0 = server default)")
	traceSample := flag.Int("trace-sample", 0, "with -exp serve: send trace context + stats request on 1-in-N requests and report server-attributed breakdowns (0 = off)")
	slowQuery := flag.Duration("slow-query", 0, "with -exp serve: managed server's slow-query log threshold (0 = off)")
	flag.Parse()

	opts := graph.MinneapolisLikeOpts()
	opts.Seed = *mapSeed
	if *rows > 0 {
		opts.Rows = *rows
	}
	if *cols > 0 {
		opts.Cols = *cols
	}
	setup := bench.Setup{MapOpts: opts, Seed: *seed}

	if err := run(os.Stdout, *exp, setup, *parallel, *httpAddr, buildScaleOpts{
		sizes: *sizes, jsonPath: *jsonPath, workers: *workers, check: *check,
	}, poolScaleOpts{
		nodes: *nodes, workers: *sizes, duration: *duration,
		jsonPath: *jsonPath, check: *check, minSpeedup: *minSpeedup,
	}, serveConfig{
		Nodes: *nodes, Conns: *conns, Duration: *duration, Rate: *rate,
		Addr: *addr, ServeBin: *serveBin, MaxInFlight: *inflight,
		TraceSample: *traceSample, SlowQuery: *slowQuery,
		JSONPath: *jsonPath, Check: *check, Seed: *seed,
	}, mixedConfig{
		Duration: *duration, JSONPath: *jsonPath, Check: *check,
	}); err != nil {
		fmt.Fprintln(os.Stderr, "ccam-bench:", err)
		os.Exit(1)
	}
}

// buildScaleOpts carries the build-scale-only flags into run.
type buildScaleOpts struct {
	sizes    string
	jsonPath string
	workers  int
	check    bool
}

func run(w io.Writer, exp string, setup bench.Setup, parallel int, httpAddr string, bs buildScaleOpts, ps poolScaleOpts, sc serveConfig, mx mixedConfig) error {
	// The build-scale, pool-scale and serve experiments generate their
	// own (much larger) networks, so skip building the default map.
	if exp == "build-scale" {
		return runBuildScale(w, setup, bs.sizes, bs.jsonPath, bs.workers, bs.check)
	}
	if exp == "pool-scale" {
		return runPoolScale(w, setup, ps)
	}
	if exp == "serve" {
		return runServe(w, sc)
	}
	g, err := setup.Network()
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "road map: %d nodes, %d directed edges, |A| = %.3f, lambda = %.2f\n\n",
		g.NumNodes(), g.NumEdges(), g.AvgSuccessors(), g.AvgNeighbors())

	all := exp == "all"
	ran := false
	if all || exp == "fig5" {
		res, err := bench.RunFig5(bench.Fig5Config{Setup: setup})
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "table5" {
		res, err := bench.RunTable5(bench.Table5Config{Setup: setup})
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "fig6" {
		res, err := bench.RunFig6(bench.Fig6Config{Setup: setup})
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "fig7" {
		res, err := bench.RunFig7(bench.Fig7Config{Setup: setup})
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-partitioner" {
		res, err := bench.RunAblationPartitioners(setup, 1024)
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-buffer" {
		res, err := bench.RunAblationBufferSweep(setup)
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-search" {
		res, err := bench.RunSearchPaths(bench.SearchPathsConfig{Setup: setup})
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-lazy" {
		res, err := bench.RunFig7(bench.Fig7Config{
			Setup:     setup,
			Policies:  []netfile.Policy{netfile.FirstOrder, netfile.Lazy, netfile.SecondOrder, netfile.HigherOrder},
			LazyEvery: 4,
		})
		if err != nil {
			return err
		}
		fmt.Fprintln(w, "Ablation A5: delayed (lazy) reorganization vs the paper's policies")
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-topology" {
		res, err := bench.RunAblationTopology(setup)
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-mixed" {
		res, err := bench.RunMixedWorkload(bench.MixedConfig{Setup: setup})
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-spatial" {
		res, err := bench.RunAblationSpatialOrder(setup)
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	// The throughput experiment measures wall-clock scaling of the
	// concurrent read path, not page-access counts, and sleeps to
	// simulate disk latency — so it runs only when asked for by name.
	if exp == "throughput" {
		if err := runThroughput(w, g, throughputConfig{
			MaxWorkers: parallel,
			Seed:       setup.Seed,
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
		ran = true
	}
	// The mixed experiment measures reader latency while durable writers
	// churn, then exercises the background reorganizer; wall-clock, so it
	// runs only by name.
	if exp == "mixed" {
		mx.Seed = setup.Seed
		if err := runMixed(w, g, mx); err != nil {
			return err
		}
		fmt.Fprintln(w)
		ran = true
	}
	// The mutation experiment measures wall-clock durable-commit
	// throughput (fsync-bound by design), so it too runs only when
	// asked for by name.
	if exp == "mutation" {
		if err := runMutation(w, g, mutationConfig{
			MaxWriters: parallel,
			Seed:       setup.Seed,
		}); err != nil {
			return err
		}
		fmt.Fprintln(w)
		ran = true
	}
	// The metrics experiment reports latency quantiles (wall-clock, not
	// page counts) and can block serving HTTP, so it also runs only when
	// asked for by name.
	if exp == "metrics" {
		if err := runMetrics(w, g, setup.Seed, httpAddr); err != nil {
			return err
		}
		fmt.Fprintln(w)
		ran = true
	}
	// The query experiment validates the CCAM-QL planner: predicted vs
	// measured data-page accesses per statement shape. Excluded from all
	// because it reports a prediction-accuracy gate, not the paper's
	// comparison tables.
	if exp == "query" {
		if err := runQueryExp(w, g, setup.Seed, bs.check); err != nil {
			return err
		}
		fmt.Fprintln(w)
		ran = true
	}
	if all || exp == "ablation-scale" {
		res, err := bench.RunAblationScale(setup, nil)
		if err != nil {
			return err
		}
		res.Print(w)
		fmt.Fprintln(w)
		ran = true
	}
	if !ran {
		return fmt.Errorf("unknown experiment %q", exp)
	}
	return nil
}
