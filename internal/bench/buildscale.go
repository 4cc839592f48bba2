package bench

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"sort"
	"time"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
)

// BuildScaleConfig configures the build-scale experiment: how fast does
// CCAM-S clustering get through large networks, and what does the speed
// cost in clustering quality?
type BuildScaleConfig struct {
	Setup Setup
	// Sizes are node-count floors; each is rounded up to the next full
	// lattice (side*side >= n). Default: 4096, 16384, 65536, 262144.
	Sizes []int
	// PageSize is the data block size (default 2048).
	PageSize int
	// Workers bounds the parallel variants' clustering pool
	// (0 = GOMAXPROCS). The serial baseline always runs with one.
	Workers int
}

// BuildScaleRow is one (size, variant) measurement.
type BuildScaleRow struct {
	Nodes   int     `json:"nodes"`
	Edges   int     `json:"edges"`
	Variant string  `json:"variant"`
	BuildMS float64 `json:"build_ms"`
	Pages   int     `json:"pages"`
	CRR     float64 `json:"crr"`
	// Fill is the mean share of a page's budget its records take.
	Fill float64 `json:"fill"`
	// MaxOverflow is how many bytes the fullest page holds over its
	// budget; any other value than 0 is a broken page plan.
	MaxOverflow int `json:"max_overflow"`
	// Speedup is serial-ratiocut build time over this variant's, at the
	// same size.
	Speedup float64 `json:"speedup_vs_serial"`
}

// BuildScaleResult holds the sweep. Rows are grouped by size in variant
// order: serial-ratiocut, parallel-ratiocut, parallel-multilevel.
type BuildScaleResult struct {
	PageSize int             `json:"page_size"`
	Workers  int             `json:"workers"`
	Seed     int64           `json:"seed"`
	Rows     []BuildScaleRow `json:"rows"`
}

// buildScaleVariants is the fixed comparison: the seed repo's serial
// ratio-cut recursion, the same recursion fanned out over the worker
// pool (identical placement — determinism is part of the contract), and
// the multilevel partitioner on the same pool.
func buildScaleVariants(workers int) []struct {
	name    string
	part    partition.Bipartitioner
	workers int
} {
	return []struct {
		name    string
		part    partition.Bipartitioner
		workers int
	}{
		{"serial-ratiocut", &partition.RatioCut{}, 1},
		{"parallel-ratiocut", &partition.RatioCut{}, workers},
		{"parallel-multilevel", &partition.Multilevel{}, workers},
	}
}

// RunBuildScale times the Fig. 2 clustering at each network size under
// the three variants, reporting wall-clock, page count, CRR, mean page
// fill, the bytes of the fullest page over its budget and the speedup
// over the serial ratio-cut baseline. All variants share one seed, so
// parallel-ratiocut must reproduce serial-ratiocut's placement exactly
// (equal CRR and pages, differing only in wall-clock).
func RunBuildScale(cfg BuildScaleConfig) (*BuildScaleResult, error) {
	sizes := cfg.Sizes
	if len(sizes) == 0 {
		sizes = []int{4096, 16384, 65536, 262144}
	}
	pageSize := cfg.PageSize
	if pageSize == 0 {
		pageSize = 2048
	}
	workers := cfg.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	res := &BuildScaleResult{PageSize: pageSize, Workers: workers, Seed: cfg.Setup.Seed}
	for _, n := range sizes {
		opts := cfg.Setup.MapOpts
		side := 1
		for side*side < n {
			side++
		}
		opts.Rows, opts.Cols = side, side
		g, err := graph.RoadMap(opts)
		if err != nil {
			return nil, err
		}
		sizeOf := netfile.StoredSizer(g)
		budget := netfile.PageBudget(pageSize)
		var serialMS float64
		for _, v := range buildScaleVariants(workers) {
			start := time.Now()
			pages, err := partition.ClusterNodesIntoPagesOpts(g, sizeOf, budget, v.part,
				partition.ClusterOptions{Workers: v.workers, Seed: cfg.Setup.Seed})
			if err != nil {
				return nil, fmt.Errorf("bench: build-scale %s at %d nodes: %w", v.name, g.NumNodes(), err)
			}
			ms := float64(time.Since(start)) / float64(time.Millisecond)
			q := partition.EvaluatePages(g, pages, sizeOf, budget)
			row := BuildScaleRow{
				Nodes:       g.NumNodes(),
				Edges:       g.NumEdges(),
				Variant:     v.name,
				BuildMS:     ms,
				Pages:       q.Pages,
				CRR:         q.CRR,
				Fill:        q.AvgFill,
				MaxOverflow: q.MaxOverflow,
			}
			if v.name == "serial-ratiocut" {
				serialMS = ms
			}
			if serialMS > 0 && ms > 0 {
				row.Speedup = serialMS / ms
			}
			res.Rows = append(res.Rows, row)
		}
	}
	return res, nil
}

// Print writes the sweep as a plain-text table.
func (r *BuildScaleResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Build scale: clustering wall-clock vs network size (block = %d, workers = %d, seed = %d)\n",
		r.PageSize, r.Workers, r.Seed)
	fmt.Fprintf(w, "%-8s %-8s %-20s %10s %7s %8s %6s %5s %8s\n",
		"nodes", "edges", "variant", "build(ms)", "pages", "CRR", "fill", "over", "speedup")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-8d %-8d %-20s %10.1f %7d %8.4f %6.3f %5d %7.2fx\n",
			row.Nodes, row.Edges, row.Variant, row.BuildMS, row.Pages, row.CRR, row.Fill, row.MaxOverflow, row.Speedup)
	}
}

// WriteJSON emits the machine-readable form consumed by CI.
func (r *BuildScaleResult) WriteJSON(w io.Writer) error {
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(r)
}

// Check enforces the experiment's regression gates: at every size, no
// variant may put a page over its budget, parallel-multilevel CRR must
// not fall more than crrTol below serial-ratiocut's (it may be higher:
// multilevel fills its pages, ratio cut keeps the paper's half-page
// floor; an overfilled page would raise it too, which the budget gate
// rules out) and parallel-ratiocut must reproduce the serial placement
// exactly; at
// the largest size, parallel-multilevel must be at least minSpeedup
// times faster than the serial baseline.
func (r *BuildScaleResult) Check(minSpeedup, crrTol float64) error {
	bySize := map[int]map[string]BuildScaleRow{}
	sizes := []int{}
	for _, row := range r.Rows {
		m, ok := bySize[row.Nodes]
		if !ok {
			m = map[string]BuildScaleRow{}
			bySize[row.Nodes] = m
			sizes = append(sizes, row.Nodes)
		}
		m[row.Variant] = row
		if row.MaxOverflow > 0 {
			return fmt.Errorf("bench: build-scale check: %s puts a page %d bytes over its budget at %d nodes",
				row.Variant, row.MaxOverflow, row.Nodes)
		}
	}
	sort.Ints(sizes)
	if len(sizes) == 0 {
		return fmt.Errorf("bench: build-scale check: no rows")
	}
	for _, n := range sizes {
		m := bySize[n]
		serial, okS := m["serial-ratiocut"]
		par, okP := m["parallel-ratiocut"]
		ml, okM := m["parallel-multilevel"]
		if !okS || !okP || !okM {
			return fmt.Errorf("bench: build-scale check: incomplete variant set at %d nodes", n)
		}
		if par.CRR != serial.CRR || par.Pages != serial.Pages {
			return fmt.Errorf("bench: build-scale check: parallel-ratiocut diverged from serial at %d nodes (CRR %.4f vs %.4f, pages %d vs %d)",
				n, par.CRR, serial.CRR, par.Pages, serial.Pages)
		}
		if ml.CRR < serial.CRR-crrTol {
			return fmt.Errorf("bench: build-scale check: multilevel CRR %.4f is more than %.2f below serial %.4f at %d nodes",
				ml.CRR, crrTol, serial.CRR, n)
		}
	}
	largest := bySize[sizes[len(sizes)-1]]
	if ml := largest["parallel-multilevel"]; ml.Speedup < minSpeedup {
		return fmt.Errorf("bench: build-scale check: multilevel speedup %.2fx below %.2fx at %d nodes",
			ml.Speedup, minSpeedup, sizes[len(sizes)-1])
	}
	return nil
}
