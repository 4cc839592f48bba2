package main

import (
	"encoding/json"
	"fmt"
	"math"
	"os"
	"reflect"
)

// spec is BENCHMARK.json, as far as the harness reads it.
type spec struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []specMetric `json:"end_to_end"`
	PerLayer []specMetric `json:"per_layer"`
}

type specMetric struct {
	Name  string  `json:"name"`
	Unit  string  `json:"unit"`
	Bound float64 `json:"bound,omitempty"`
}

func readSpec(path string) (*spec, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s spec
	if err := json.Unmarshal(b, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

// matchesHarness reports where BENCHMARK.json and the harness's own
// workload and metric lists disagree. Every run checks it first, so a
// definition edited without the harness (or the reverse) fails at once
// and not only in the benchmark's tests, which the repository's own
// `go test ./...` does not reach.
func (sp *spec) matchesHarness() error {
	names := func(ms []specMetric) (out []metricDef) {
		for _, m := range ms {
			out = append(out, metricDef{m.Name, m.Unit})
		}
		return out
	}
	if got := names(sp.EndToEnd); !reflect.DeepEqual(got, endToEnd) {
		return fmt.Errorf("end_to_end is %v, the harness reports %v", got, endToEnd)
	}
	if got := names(sp.PerLayer); !reflect.DeepEqual(got, perLayer) {
		return fmt.Errorf("per_layer is %v, the harness reports %v", got, perLayer)
	}
	if len(sp.Workloads) != len(workloads) {
		return fmt.Errorf("%d workloads, the harness has %d", len(sp.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if sp.Workloads[i].Name != w.Name || sp.Workloads[i].Why != w.Why {
			return fmt.Errorf("workload %d is %q (%q), the harness has %q (%q)", i,
				sp.Workloads[i].Name, sp.Workloads[i].Why, w.Name, w.Why)
		}
	}
	for _, m := range sp.EndToEnd {
		if m.Bound <= 0 || m.Bound > 0.25 {
			return fmt.Errorf("%s: bound %v outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	return nil
}

// selfcheck measures the same tree twice — two sets of selfcheckRuns
// untraced runs per workload, alternating, each run on a seed of its
// own — and fails if the medians of the two sets of any end-to-end
// metric differ, in either direction, by more than the metric's bound,
// or if any run was flagged: the benchmark must not call its own noise
// a change.
func selfcheck(o options, sc scale, sp *spec) error {
	newEnvelope(sc, o.seed, o.seconds).print(os.Stdout)
	fmt.Printf("selfcheck: 2 sets of %d runs per workload, medians compared against the bounds of %s\n", selfcheckRuns, o.spec)
	bad := 0
	for _, w := range workloads {
		var sets [2]map[string][]float64
		for i := range sets {
			sets[i] = map[string][]float64{}
		}
		for run := 0; run < selfcheckRuns; run++ {
			for set := range sets {
				ro := o
				ro.seed = o.seed + int64(2*run+set)
				r, err := runOne(w, ro, sc, false)
				if err != nil {
					return fmt.Errorf("%s: %w", w.Name, err)
				}
				if r.Failed > 0 {
					return fmt.Errorf("%s: %d of %d operations failed", w.Name, r.Failed, r.Attempted)
				}
				for _, f := range r.Flags {
					fmt.Printf("%s, seed %d: FLAG: %s\n", w.Name, ro.seed, f)
					bad++
				}
				for name, v := range r.Metrics {
					sets[set][name] = append(sets[set][name], v)
				}
			}
		}
		fmt.Printf("== %s\n  %-18s %14s %14s %9s %7s\n", w.Name, "metric", "first", "second", "differ by", "bound")
		for _, m := range sp.EndToEnd {
			a, b := medianOf(sets[0][m.Name]), medianOf(sets[1][m.Name])
			d := 0.0
			if a != 0 {
				d = (b - a) / a
			}
			verdict := ""
			if math.Abs(d) > m.Bound {
				verdict = "  EXCEEDS ITS BOUND"
				bad++
			}
			fmt.Printf("  %-18s %14.4f %14.4f %+8.1f%% %6.0f%%%s\n", m.Name, a, b, 100*d, 100*m.Bound, verdict)
		}
	}
	if bad > 0 {
		return fmt.Errorf("selfcheck: %d metric(s) or run(s) out of bounds between two sets of runs of the same code", bad)
	}
	fmt.Println("selfcheck: passed")
	return nil
}
