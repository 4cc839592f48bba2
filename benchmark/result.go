package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"os/exec"
	"runtime"
	"runtime/debug"
	"sort"
	"strings"
	"time"
)

// runResult is the outcome of one run of one workload, traced or not.
type runResult struct {
	Workload string `json:"workload"`
	Seed     int64  `json:"seed"`
	Seconds  int    `json:"seconds"`
	Traced   bool   `json:"traced"`
	// Attempted counts every operation whose answer was checked:
	// reads, batches and post-reopen record verifications. Failed
	// counts errors, shed requests, answers that disagree with the
	// reference and verification misses.
	Attempted int64 `json:"attempted"`
	Failed    int64 `json:"failed"`
	// Metrics holds the end-to-end metrics (untraced run) or the
	// per-layer metrics (traced run), by name.
	Metrics map[string]float64 `json:"metrics"`
	// Counts holds sample counts behind the percentiles.
	Counts map[string]int64 `json:"counts"`
	// Extra holds measurements a run took on the way that are not
	// metrics of its mode (printed, never gated).
	Extra map[string]float64 `json:"extra,omitempty"`
	// Budget is the traced run's Find budget table.
	Budget []budgetRow `json:"budget,omitempty"`
	// Flags name what makes this run's numbers suspect (see
	// maxLateShare, maxUnattributed); -selfcheck fails on any.
	Flags []string `json:"flags,omitempty"`
}

func newRunResult(workload string, seed int64, seconds int) *runResult {
	return &runResult{Workload: workload, Seed: seed, Seconds: seconds,
		Metrics: map[string]float64{}, Counts: map[string]int64{}, Extra: map[string]float64{}}
}

func (r *runResult) set(name string, v float64) { r.Metrics[name] = v }

func (r *runResult) failedShare() float64 {
	if r.Attempted == 0 {
		return 1
	}
	return float64(r.Failed) / float64(r.Attempted)
}

// flagLate flags a served run whose open-loop generator ran late by a
// sizeable share of the Find median it reports: such a median is the
// harness's lateness, not the server's service time.
func (r *runResult) flagLate(lateP50NS, findP50NS float64) {
	if findP50NS > 0 && lateP50NS > maxLateShare*findP50NS {
		r.Flags = append(r.Flags, fmt.Sprintf("open-loop generator late by %.0f us at the median, over %.0f%% of the mid-rate find_p50 (%.0f us)",
			lateP50NS/1e3, 100*maxLateShare, findP50NS/1e3))
	}
}

// flagBudget flags a traced run whose Find budget leaves more than
// maxUnattributed of the Find median unexplained.
func (r *runResult) flagBudget() {
	if v := r.Metrics["budget.unattributed_share"]; v > maxUnattributed {
		r.Flags = append(r.Flags, fmt.Sprintf("budget.unattributed_share %.3f exceeds %.2f", v, maxUnattributed))
	}
}

// setScaled sets a time or rate metric to its value at reference speed
// and keeps the value as measured beside it.
func (r *runResult) setScaled(name string, scaled, raw float64) {
	r.set(name, scaled)
	r.Extra["raw_"+name] = raw
}

// setupMetric sets setup_s to the median of the run's set-ups, scaled
// by how slow the memory kernel ran in segs, which were measured
// seconds after them.
func (r *runResult) setupMetric(setups []time.Duration, segs []*segment) {
	raw := medianDuration(setups)
	r.setScaled("setup_s", raw/math.Pow(medianSlow(segs), setupLean), raw)
}

// readMetrics fills the reader-side end-to-end metrics from the
// segments of a window: rates over all the time measured, latencies as
// the median of the segments' medians, both at reference speed (see
// calib.go). The latencies that were demoted from the end-to-end list,
// the tails and the sample counts are printed beside them.
func (r *runResult) readMetrics(segs []*segment, pick func(*segment) *clientStats, lean float64) {
	scaled, raw := rateAtRefSpeed(segs, pick, lean)
	r.setScaled("ops_per_s", scaled, raw)
	for _, k := range []opKind{opFind, opRoute} {
		scaled, raw := atRefSpeed(segs, pick, k, lean)
		r.setScaled(kindNames[k]+"_p50_us", scaled/1e3, raw/1e3)
	}
	succ, _ := atRefSpeed(segs, pick, opSucc, lean)
	r.Extra["succ_p50_us"] = succ / 1e3
	r.queryMetrics(segs, pick, lean)
	all := pooled(segs, pick)
	for k := opFind; k < opQuery; k++ {
		r.Counts[kindNames[k]+"_samples"] = all.samples(k)
	}
	r.Extra["find_p99_us"] = all.quantile(opFind, 0.99) / 1e3
	r.Extra["route_p99_us"] = all.quantile(opRoute, 0.99) / 1e3
	r.Extra["range_p50_us"] = all.quantile(opRange, 0.50) / 1e3
	r.Extra["all_p50_us"] = all.allQuantile(0.50) / 1e3
	r.Extra["all_p99_us"] = all.allQuantile(0.99) / 1e3
	r.Extra["slowdown_p50"] = medianSlow(segs)
	r.Counts["segments"] = int64(len(segs))
}

// queryMetrics records the statement latency of the clients that
// issued the statements: the reader, or beside a writer the writer's
// goroutine after each batch.
func (r *runResult) queryMetrics(segs []*segment, pick func(*segment) *clientStats, lean float64) {
	scaled, _ := atRefSpeed(segs, pick, opQuery, lean)
	r.Extra["query_p50_us"] = scaled / 1e3
	r.Counts["query_samples"] = pooled(segs, pick).samples(opQuery)
}

// writeMetrics fills the writer-side end-to-end metrics.
func (r *runResult) writeMetrics(segs []*segment) {
	scaled, raw := atRefSpeed(segs, writeOf, opApply, writeLean)
	r.setScaled("apply_p50_us", scaled/1e3, raw/1e3)
	scaled, raw = rateAtRefSpeed(segs, writeOf, writeLean)
	r.setScaled("apply_ops_per_s", batchOps*scaled, batchOps*raw)
	all := pooled(segs, writeOf)
	r.Extra["apply_p99_us"] = all.quantile(opApply, 0.99) / 1e3
	r.Extra["write_slowdown_p50"] = medianSlow(segs)
	r.Counts["apply_batches"] = all.ops
}

// driverLine is the last line of standard output in driver mode.
type driverLine struct {
	Correct   bool                   `json:"correct"`
	Attempted int64                  `json:"attempted"`
	Failed    int64                  `json:"failed"`
	Metrics   map[string]driverValue `json:"metrics"`
}

type driverValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// writeDriverLine prints the result in the driver's format: exactly
// the metrics of defs, each with its unit.
func (r *runResult) writeDriverLine(w io.Writer, defs []metricDef) error {
	line := driverLine{Correct: r.Failed == 0 && r.Attempted > 0,
		Attempted: r.Attempted, Failed: r.Failed, Metrics: map[string]driverValue{}}
	for _, d := range defs {
		v, ok := r.Metrics[d.Name]
		if !ok {
			return fmt.Errorf("workload %s did not measure %s", r.Workload, d.Name)
		}
		line.Metrics[d.Name] = driverValue{Value: v, Unit: d.Unit}
	}
	b, err := json.Marshal(line)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// print writes every metric of defs by name with its unit.
func (r *runResult) print(w io.Writer, defs []metricDef) {
	mode := "untraced"
	if r.Traced {
		mode = "traced"
	}
	fmt.Fprintf(w, "== %s (%s, seed %d, %d s): attempted %d, failed %d (failed_share %.6f)\n",
		r.Workload, mode, r.Seed, r.Seconds, r.Attempted, r.Failed, r.failedShare())
	for _, d := range defs {
		fmt.Fprintf(w, "  %-34s %16.4f %s\n", d.Name, r.Metrics[d.Name], d.Unit)
	}
	for _, f := range r.Flags {
		fmt.Fprintf(w, "  FLAG: %s\n", f)
	}
	printSorted(w, "  samples: ", r.Counts)
	printSorted(w, "  also:    ", r.Extra)
	if len(r.Budget) > 0 {
		printBudget(w, r.Workload, r.Budget, r.Extra["replay_find_p50_us"]*1e3)
	}
}

func printSorted[V int64 | float64](w io.Writer, prefix string, m map[string]V) {
	if len(m) == 0 {
		return
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	parts := make([]string, len(keys))
	for i, k := range keys {
		parts[i] = fmt.Sprintf("%s=%v", k, m[k])
	}
	fmt.Fprintf(w, "%s%s\n", prefix, strings.Join(parts, " "))
}

// envelope records everything needed to compare two result files
// without guessing.
type envelope struct {
	GoVersion   string `json:"go_version"`
	GOMAXPROCS  int    `json:"gomaxprocs"`
	NumCPU      int    `json:"nproc"`
	Commit      string `json:"commit"`
	Seed        int64  `json:"seed"`
	Seconds     int    `json:"window_seconds"`
	Scale       scale  `json:"scale"`
	Nodes       int    `json:"fixture_nodes"`
	Edges       int    `json:"fixture_edges"`
	PageSize    int    `json:"page_size"`
	Clients     int    `json:"clients"`
	Pipeline    int    `json:"pipeline_depth"`
	BatchOps    int    `json:"batch_ops"`
	FlushPolicy string `json:"flush_policy"`
	SelfRuns    int    `json:"selfcheck_runs_per_set"`
	// CalRefNS, CalSteps and CalRecords define the calibration
	// kernel and the speed every time and rate is scaled to, Leans how
	// far each kind of metric follows it: read, write, served mid rate,
	// served saturation, set-up (see calib.go).
	CalRefNS   float64    `json:"calibration_ref_ns_per_step"`
	CalSteps   int        `json:"calibration_steps_per_slice"`
	CalRecords int        `json:"calibration_records"`
	Leans      [5]float64 `json:"calibration_leans"`
	// EchoRefNS and EchoProbe define the served workload's reference
	// round trip (see echo.go).
	EchoRefNS float64  `json:"echo_ref_ns"`
	EchoProbe int      `json:"echo_probe_messages"`
	Claim     *string  `json:"claim"`
	Workloads []string `json:"workloads"`
}

func newEnvelope(sc scale, seed int64, seconds int) envelope {
	e := envelope{
		GoVersion: runtime.Version(), GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(),
		Commit: commitHash(), Seed: seed, Seconds: seconds, Scale: sc, PageSize: pageSize,
		Clients: readers, Pipeline: pipelineDepth, BatchOps: batchOps, FlushPolicy: flushPolicy, SelfRuns: selfcheckRuns,
		CalRefNS: calRefNS, CalSteps: calSteps, CalRecords: calRecords,
		Leans:     [5]float64{readLean, writeLean, midLean, satLean, setupLean},
		EchoRefNS: echoRefNS, EchoProbe: echoProbe,
	}
	for _, w := range workloads {
		e.Workloads = append(e.Workloads, w.Name)
	}
	if g, err := roadMap(sc); err == nil {
		e.Nodes, e.Edges = g.NumNodes(), g.NumEdges()
	}
	return e
}

// commitHash names the commit under test: CCAM_BENCH_COMMIT if set,
// else the VCS stamp of the build, else git, else "unknown" (a
// driver's checkout is not a git repository).
func commitHash() string {
	if c := os.Getenv("CCAM_BENCH_COMMIT"); c != "" {
		return c
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			if s.Key == "vcs.revision" {
				return s.Value
			}
		}
	}
	if out, err := exec.Command("git", "rev-parse", "HEAD").Output(); err == nil {
		return strings.TrimSpace(string(out))
	}
	return "unknown"
}

func (e envelope) print(w io.Writer) {
	fmt.Fprintf(w, "env: %s GOMAXPROCS=%d nproc=%d commit=%s\n", e.GoVersion, e.GOMAXPROCS, e.NumCPU, e.Commit)
	fmt.Fprintf(w, "fixture: %s scale, %dx%d lattice -> %d nodes / %d edges, page %d B, map seed %d, partition seed %d\n",
		e.Scale.Name, e.Scale.Side, e.Scale.Side, e.Nodes, e.Edges, e.PageSize, mapSeed, partitionSeed)
	fmt.Fprintf(w, "pools: resident %d, cold %d, mixed %d (checkpoint %d B), served: daemon default\n",
		e.Scale.ResidentPool, e.Scale.ColdPool, e.Scale.MixedPool, e.Scale.MixedCkpt)
	fmt.Fprintf(w, "load: seed %d, %d clients, window %d s after %s warm-up, %d set-ups per run, write tail %d batches of %d ops\n",
		e.Seed, e.Clients, e.Seconds, e.Scale.Warmup, e.Scale.Setups, e.Scale.TailBatches, e.BatchOps)
	fmt.Fprintf(w, "serve: rates lo/mid/hi %v req/s, pipeline depth %d, p99 limit %.0f us\n",
		e.Scale.ServeRates, e.Pipeline, e.Scale.P99LimitUS)
	fmt.Fprintf(w, "reference speed: times and rates scaled to a %d-record kernel at %.0f ns per step (slices of %d steps; leans read/write/mid-rate/saturation/set-up %v); served phases to an echo round trip of %.0f us (probes of %d messages)\n",
		e.CalRecords, e.CalRefNS, e.CalSteps, e.Leans, e.EchoRefNS/1e3, e.EchoProbe)
	fmt.Fprintf(w, "flush policy: %s; claim: none\n", e.FlushPolicy)
}
