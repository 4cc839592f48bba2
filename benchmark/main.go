// Command benchmark is the repository's one benchmark: four workloads
// over one fixture, every answer checked against an in-memory
// reference, end-to-end metrics from untraced runs and per-layer
// metrics from separate traced runs. See README.md.
//
//	bash benchmark/run.sh                      # everything, human readable
//	bash benchmark/run.sh -selfcheck           # twice, compared against the bounds
//	bash benchmark/run.sh --workload read_resident --seed 1 --seconds 10 --trace 0
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"os"
	"path/filepath"
)

type options struct {
	workload  string
	seed      int64
	seconds   int
	trace     int
	smoke     bool
	selfcheck bool
	spec      string
	out       string
	serveBin  string
}

func main() {
	if os.Getenv(echoEnv) != "" {
		// The served workload's echo process (see echo.go).
		if err := runEcho(); err != nil {
			fmt.Fprintln(os.Stderr, "benchmark echo:", err)
			os.Exit(1)
		}
		return
	}
	var o options
	flag.StringVar(&o.workload, "workload", "", "run one workload and print the driver's JSON line (default: all, human readable)")
	flag.Int64Var(&o.seed, "seed", 1, "op-stream seed (the map seed stays fixed)")
	flag.IntVar(&o.seconds, "seconds", 10, "length of the measured window, as run_seconds in BENCHMARK.json")
	flag.IntVar(&o.trace, "trace", 0, "with -workload: 0 prints end-to-end metrics of an untraced run, 1 per-layer metrics of a traced run")
	flag.BoolVar(&o.smoke, "smoke", false, "small fixture and short fixed parts (for tests)")
	flag.BoolVar(&o.selfcheck, "selfcheck", false, "run two sets of runs of every workload and compare each end-to-end metric against its bound in BENCHMARK.json")
	flag.StringVar(&o.spec, "spec", "BENCHMARK.json", "the benchmark's definition; every run checks that the harness agrees with it")
	flag.StringVar(&o.out, "out", filepath.Join("benchmark", "out"), "directory for scratch stores, traces and result.json")
	flag.StringVar(&o.serveBin, "serve-bin", os.Getenv("CCAM_SERVE_BIN"), "ccam-serve binary built from the commit under test (run.sh sets it)")
	flag.Parse()
	err := run(o)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

var errIncorrect = errors.New("answers disagreed with the reference (see failed counts above)")

func run(o options) error {
	if flag.NArg() > 0 {
		return fmt.Errorf("unexpected argument %q", flag.Arg(0))
	}
	if o.seconds < 1 {
		return fmt.Errorf("-seconds must be at least 1")
	}
	sp, err := readSpec(o.spec)
	if err != nil {
		return err
	}
	if err := sp.matchesHarness(); err != nil {
		return fmt.Errorf("%s: %w", o.spec, err)
	}
	sc := fullScale
	if o.smoke {
		sc = smokeScale
	}
	switch {
	case o.selfcheck:
		return selfcheck(o, sc, sp)
	case o.workload != "":
		return runDriver(o, sc)
	default:
		return runAll(o, sc)
	}
}

// runOne runs one workload once, traced or untraced.
func runOne(w workload, o options, sc scale, traced bool) (*runResult, error) {
	switch {
	case traced:
		return runTraced(w, sc, o)
	case w.served:
		return runServed(w, sc, o)
	default:
		return runInProcess(w, sc, o.seed, o.seconds, o.out)
	}
}

// runDriver is the mode the benchmark driver uses: one workload, one
// run, one JSON object as the last line of standard output.
func runDriver(o options, sc scale) error {
	w, ok := findWorkload(o.workload)
	if !ok {
		return fmt.Errorf("unknown workload %q", o.workload)
	}
	if o.trace != 0 && o.trace != 1 {
		return fmt.Errorf("-trace must be 0 or 1")
	}
	r, err := runOne(w, o, sc, o.trace == 1)
	if err != nil {
		return err
	}
	defs := endToEnd
	if r.Traced {
		defs = perLayer
	}
	r.print(os.Stderr, defs)
	if err := r.writeDriverLine(os.Stdout, defs); err != nil {
		return err
	}
	if r.Failed > 0 {
		return errIncorrect
	}
	return nil
}

// fullResult is what runAll writes to out/result.json.
type fullResult struct {
	Env      envelope     `json:"env"`
	Untraced []*runResult `json:"untraced"`
	Traced   []*runResult `json:"traced"`
}

// runAll runs every workload untraced, then every workload traced,
// and prints every metric by name with its unit.
func runAll(o options, sc scale) error {
	env := newEnvelope(sc, o.seed, o.seconds)
	env.print(os.Stdout)
	full := fullResult{Env: env}
	failed := false
	for _, w := range workloads {
		r, err := runOne(w, o, sc, false)
		if err != nil {
			return fmt.Errorf("%s: %w", w.Name, err)
		}
		r.print(os.Stdout, endToEnd)
		full.Untraced = append(full.Untraced, r)
		failed = failed || r.Failed > 0
	}
	for _, w := range workloads {
		r, err := runOne(w, o, sc, true)
		if err != nil {
			return fmt.Errorf("%s (traced): %w", w.Name, err)
		}
		r.print(os.Stdout, perLayer)
		full.Traced = append(full.Traced, r)
		failed = failed || r.Failed > 0
	}
	if err := writeJSON(filepath.Join(o.out, "result.json"), full); err != nil {
		return err
	}
	if failed {
		return errIncorrect
	}
	return nil
}

func writeJSON(path string, v any) error {
	b, err := json.MarshalIndent(v, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
