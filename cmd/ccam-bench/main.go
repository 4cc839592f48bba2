// Command ccam-bench regenerates the paper's tables and figures
// (Section 4) and the repository's ablation studies, printing each as a
// plain-text table. It is flag parsing over internal/bench plus the two
// experiments that drive the public API (query, mutation); wall-clock
// serving, mixed read/write and multi-reader measurements belong to the
// benchmark/ harness (BENCHMARK.json).
//
// Usage:
//
//	ccam-bench -exp all
//	ccam-bench -exp all -json BENCH_paper.json
//	ccam-bench -exp all -check BENCH_paper.json
//	ccam-bench -exp fig5
//	ccam-bench -exp table5
//	ccam-bench -exp fig6
//	ccam-bench -exp fig7
//	ccam-bench -exp ablation-partitioner
//	ccam-bench -exp ablation-buffer
//	ccam-bench -exp ablation-scale
//	ccam-bench -exp mutation -parallel 8
//	ccam-bench -exp build-scale -sizes 4096,65536 -workers 4 -json out.json -check
//	ccam-bench -exp query -check
//
// Flags -seed, -rows and -cols change the synthetic road map; the
// defaults reproduce the paper-scale Minneapolis map (1077 nodes, 3045
// edges). -exp all runs every experiment that reports the paper's
// currency, data-page accesses; three more run only by name. Every
// number those experiments print but their wall-clock columns is a cell
// of the paper artifact: -json FILE writes the cells of the experiments
// run, and -check compares them exactly with the artifact named by the
// last argument (default BENCH_paper.json), failing on any difference.
// The mutation experiment sweeps concurrent writers committing one-op
// batches against the file-backed WAL store under each sync policy,
// showing group commit's fsync coalescing (wall-clock, fsync-bound by
// design). The build-scale experiment (also wall-clock) sweeps network
// sizes from -sizes and times the Fig. 2 clustering under serial
// ratio-cut, parallel ratio-cut and parallel multilevel; -json writes
// the machine-readable result and -check enforces the
// determinism/quality/speedup regression gates. The query experiment
// runs one CCAM-QL statement per shape, printing the planner's chosen
// access path and predicted data-page accesses next to the cold-pool
// measurement; -check fails the run when any prediction misses by more
// than 30% or the planner collapses onto fewer than three access
// paths.
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"strings"

	"ccam/internal/bench"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// config carries the parsed flags to the experiments.
type config struct {
	setup    bench.Setup
	parallel int
	sizes    string
	jsonPath string
	workers  int
	check    bool
	// artifact is the paper artifact -check compares the paper
	// experiments' cells with.
	artifact string
}

// experiment is one -exp value. g is the default road map, nil for an
// ownMap experiment.
type experiment struct {
	name string
	// inAll marks the experiments -exp all runs, in table order: the
	// ones that report page accesses rather than wall-clock time or a
	// gate.
	inAll bool
	// ownMap marks an experiment that generates its own (much larger)
	// networks, so the default map is neither built nor announced.
	ownMap bool
	// run prints the experiment and returns its paper-artifact cells,
	// none for an experiment that reports wall-clock time or a gate.
	run func(w io.Writer, g *graph.Network, c config) ([]bench.Cell, error)
}

// result is what every internal/bench experiment returns: a table to
// print and the cells the paper artifact pins.
type result interface {
	Print(io.Writer)
	Cells() []bench.Cell
}

// show prints an experiment's result unless it failed, and returns its
// cells.
func show(w io.Writer, res result, err error) ([]bench.Cell, error) {
	if err != nil {
		return nil, err
	}
	res.Print(w)
	return res.Cells(), nil
}

// tabled adapts an internal/bench experiment — a function of the setup
// returning a printable result — to the table.
func tabled[R result](f func(bench.Setup) (R, error)) func(io.Writer, *graph.Network, config) ([]bench.Cell, error) {
	return func(w io.Writer, _ *graph.Network, c config) ([]bench.Cell, error) {
		res, err := f(c.setup)
		return show(w, res, err)
	}
}

var experiments = []experiment{
	{name: "fig5", inAll: true, run: tabled(func(s bench.Setup) (*bench.Fig5Result, error) {
		return bench.RunFig5(bench.Fig5Config{Setup: s})
	})},
	{name: "table5", inAll: true, run: tabled(func(s bench.Setup) (*bench.Table5Result, error) {
		return bench.RunTable5(bench.Table5Config{Setup: s})
	})},
	{name: "fig6", inAll: true, run: tabled(func(s bench.Setup) (*bench.Fig6Result, error) {
		return bench.RunFig6(bench.Fig6Config{Setup: s})
	})},
	{name: "fig7", inAll: true, run: tabled(func(s bench.Setup) (*bench.Fig7Result, error) {
		return bench.RunFig7(bench.Fig7Config{Setup: s})
	})},
	{name: "ablation-partitioner", inAll: true, run: tabled(func(s bench.Setup) (*bench.AblationPartitionerResult, error) {
		return bench.RunAblationPartitioners(s, 1024)
	})},
	{name: "ablation-buffer", inAll: true, run: tabled(bench.RunAblationBufferSweep)},
	{name: "ablation-search", inAll: true, run: tabled(func(s bench.Setup) (*bench.SearchPathsResult, error) {
		return bench.RunSearchPaths(bench.SearchPathsConfig{Setup: s})
	})},
	{name: "ablation-lazy", inAll: true, run: func(w io.Writer, _ *graph.Network, c config) ([]bench.Cell, error) {
		fmt.Fprintln(w, "Ablation A5: delayed (lazy) reorganization vs the paper's policies")
		res, err := bench.RunFig7(bench.Fig7Config{
			Setup:     c.setup,
			Policies:  []netfile.Policy{netfile.FirstOrder, netfile.Lazy, netfile.SecondOrder, netfile.HigherOrder},
			LazyEvery: 4,
		})
		return show(w, res, err)
	}},
	{name: "ablation-topology", inAll: true, run: tabled(bench.RunAblationTopology)},
	{name: "ablation-mixed", inAll: true, run: tabled(func(s bench.Setup) (*bench.MixedResult, error) {
		return bench.RunMixedWorkload(bench.MixedConfig{Setup: s})
	})},
	{name: "ablation-spatial", inAll: true, run: tabled(bench.RunAblationSpatialOrder)},
	{name: "ablation-scale", inAll: true, run: tabled(func(s bench.Setup) (*bench.AblationScaleResult, error) {
		return bench.RunAblationScale(s, nil)
	})},
	// Durable-commit throughput is wall-clock and fsync-bound by design.
	{name: "mutation", run: func(w io.Writer, g *graph.Network, c config) ([]bench.Cell, error) {
		return nil, runMutation(w, g, mutationConfig{MaxWriters: c.parallel, Seed: c.setup.Seed})
	}},
	// The planner's predicted vs measured data-page accesses per
	// statement shape: a prediction-accuracy gate, not one of the
	// paper's comparison tables.
	{name: "query", run: func(w io.Writer, g *graph.Network, c config) ([]bench.Cell, error) {
		return nil, runQueryExp(w, g, c.setup.Seed, c.check)
	}},
	{name: "build-scale", ownMap: true, run: func(w io.Writer, _ *graph.Network, c config) ([]bench.Cell, error) {
		return nil, runBuildScale(w, c.setup, c.sizes, c.jsonPath, c.workers, c.check)
	}},
}

// experimentNames lists every valid -exp value, "all" first.
func experimentNames() string {
	names := []string{"all"}
	for _, e := range experiments {
		names = append(names, e.name)
	}
	return strings.Join(names, ", ")
}

func main() {
	exp := flag.String("exp", "all", "experiment: "+experimentNames()+" (mutation, query and build-scale are not part of all)")
	seed := flag.Int64("seed", 42, "workload seed")
	mapSeed := flag.Int64("mapseed", 169, "road map generator seed")
	rows := flag.Int("rows", 0, "override road map lattice rows")
	cols := flag.Int("cols", 0, "override road map lattice cols")
	parallel := flag.Int("parallel", 8, "largest concurrent-writer count the mutation experiment sweeps")
	sizes := flag.String("sizes", "", "with -exp build-scale: comma-separated node counts to sweep (default 4096,16384,65536,262144)")
	jsonPath := flag.String("json", "", "also write the result as JSON to this path: the paper artifact's cells, or with -exp build-scale the sweep")
	check := flag.Bool("check", false, "fail unless the cells equal the paper artifact named by the last argument (default BENCH_paper.json), or with -exp build-scale or query unless the experiment's regression gates hold")
	workers := flag.Int("workers", 0, "with -exp build-scale: clustering worker pool for the parallel variants (0 = GOMAXPROCS)")
	flag.Parse()
	artifact := "BENCH_paper.json"
	switch {
	case flag.NArg() == 1 && *check:
		artifact = flag.Arg(0)
	case flag.NArg() > 0:
		fmt.Fprintf(os.Stderr, "ccam-bench: unexpected arguments %q (only -check takes one: the paper artifact, last)\n", flag.Args())
		os.Exit(2)
	}

	opts := graph.MinneapolisLikeOpts()
	opts.Seed = *mapSeed
	if *rows > 0 {
		opts.Rows = *rows
	}
	if *cols > 0 {
		opts.Cols = *cols
	}
	err := run(os.Stdout, *exp, config{
		setup:    bench.Setup{MapOpts: opts, Seed: *seed},
		parallel: *parallel,
		sizes:    *sizes, jsonPath: *jsonPath, workers: *workers, check: *check,
		artifact: artifact,
	})
	if err != nil {
		fmt.Fprintln(os.Stderr, "ccam-bench:", err)
		os.Exit(1)
	}
}

// run runs the experiment named exp, or every inAll one for "all",
// each followed by a blank line, then writes (-json) or checks (-check)
// the paper artifact of the cells they returned.
func run(w io.Writer, exp string, c config) error {
	var selected []experiment
	for _, e := range experiments {
		if e.name == exp || (exp == "all" && e.inAll) {
			selected = append(selected, e)
		}
	}
	if len(selected) == 0 {
		return fmt.Errorf("unknown experiment %q (valid: %s)", exp, experimentNames())
	}
	var g *graph.Network
	if !selected[0].ownMap { // an ownMap experiment is never part of all: it runs alone
		var err error
		if g, err = c.setup.Network(); err != nil {
			return err
		}
		fmt.Fprintf(w, "road map: %d nodes, %d directed edges, |A| = %.3f, lambda = %.2f\n\n",
			g.NumNodes(), g.NumEdges(), g.AvgSuccessors(), g.AvgNeighbors())
	}
	art := &bench.PaperArtifact{Seed: c.setup.Seed, MapSeed: c.setup.MapOpts.Seed}
	if g != nil {
		art.Nodes, art.Edges = g.NumNodes(), g.NumEdges()
	}
	for _, e := range selected {
		cells, err := e.run(w, g, c)
		if err != nil {
			return err
		}
		for _, cell := range cells {
			cell.Experiment = e.name
			art.Rows = append(art.Rows, cell)
		}
		fmt.Fprintln(w)
	}
	if len(art.Rows) == 0 {
		return nil
	}
	if c.jsonPath != "" {
		if err := writeArtifact(c.jsonPath, art); err != nil {
			return err
		}
		fmt.Fprintf(w, "wrote %d cells to %s\n", len(art.Rows), c.jsonPath)
	}
	if c.check {
		return checkArtifact(w, c.artifact, art)
	}
	return nil
}

func writeArtifact(path string, art *bench.PaperArtifact) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := art.WriteJSON(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// checkArtifact compares a run's cells with the artifact at path and
// fails, listing the differences, unless they are equal.
func checkArtifact(w io.Writer, path string, art *bench.PaperArtifact) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	want, err := bench.ReadPaperArtifact(f)
	if err != nil {
		return err
	}
	diff := art.Diff(want)
	if len(diff) > 0 {
		const show = 40
		for i, d := range diff {
			if i == show {
				fmt.Fprintf(w, "... and %d more\n", len(diff)-show)
				break
			}
			fmt.Fprintln(w, d)
		}
		return fmt.Errorf("check failed: %d differences from %s", len(diff), path)
	}
	fmt.Fprintf(w, "check passed: %d cells equal %s\n", len(art.Rows), path)
	return nil
}
