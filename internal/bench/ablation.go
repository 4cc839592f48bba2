package bench

import (
	"context"
	"fmt"
	"io"
	"math/rand"
	"time"

	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
)

// AblationPartitionerResult compares the partitioning heuristics CCAM
// can be based on ("other graph partitioning methods can also be used
// as the basis of our scheme"), plus the optional greedy M-way
// refinement pass.
type AblationPartitionerResult struct {
	Rows []AblationPartitionerRow
}

// AblationPartitionerRow is one heuristic's clustering quality.
type AblationPartitionerRow struct {
	Name      string
	CRR       float64
	Pages     int
	AvgFill   float64
	BuildTime time.Duration
}

// RunAblationPartitioners clusters the benchmark map with each
// heuristic (KL, FM, ratio-cut, multilevel) and with ratio cut followed
// by partition.MergePages, partition.MWayRefine or both, all on one
// working set, at the given block size (default 1024).
func RunAblationPartitioners(setup Setup, blockSize int) (*AblationPartitionerResult, error) {
	if blockSize == 0 {
		blockSize = 1024
	}
	g, err := setup.Network()
	if err != nil {
		return nil, err
	}
	sizeOf := netfile.StoredSizer(g)
	budget := netfile.PageBudget(blockSize)

	type cand struct {
		name     string
		part     partition.Bipartitioner
		mway     bool
		coalesce bool
	}
	cands := []cand{
		{"kernighan-lin", &partition.KL{}, false, false},
		{"fm", &partition.FM{}, false, false},
		{"ratio-cut", &partition.RatioCut{}, false, false},
		{"multilevel", &partition.Multilevel{}, false, false},
		{"ratio-cut+mway", &partition.RatioCut{}, true, false},
		{"ratio-cut+coalesce", &partition.RatioCut{}, false, true},
		{"ratio-cut+both", &partition.RatioCut{}, true, true},
	}
	// Every row clusters, merges and refines the one working set; a
	// row's build time is its recursion and post-passes.
	w := partition.BuildWeighted(g, sizeOf)
	res := &AblationPartitionerResult{}
	for _, c := range cands {
		seed := rand.New(rand.NewSource(setup.Seed)).Int63()
		start := time.Now()
		pages, err := partition.ClusterWeightedIntoPages(w, budget, c.part, partition.ClusterOptions{Workers: 1, Seed: seed})
		if err != nil {
			return nil, fmt.Errorf("bench: ablation %s: %w", c.name, err)
		}
		if c.coalesce {
			pages = partition.MergePages(w, pages, budget)
		}
		if c.mway {
			pages, _ = partition.MWayRefine(w, pages, budget, 10)
		}
		elapsed := time.Since(start)
		q := partition.EvaluatePages(g, pages, sizeOf, budget)
		res.Rows = append(res.Rows, AblationPartitionerRow{
			Name: c.name, CRR: q.CRR, Pages: q.Pages, AvgFill: q.AvgFill, BuildTime: elapsed,
		})
	}
	return res, nil
}

// Print writes the partitioner comparison.
func (r *AblationPartitionerResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation A1: partitioning heuristic vs clustering quality (block = 1k)")
	fmt.Fprintf(w, "%-16s %8s %7s %8s %12s\n", "partitioner", "CRR", "pages", "avgFill", "build")
	for _, row := range r.Rows {
		fmt.Fprintf(w, "%-16s %8.4f %7d %8.2f %12s\n",
			row.Name, row.CRR, row.Pages, row.AvgFill, row.BuildTime.Round(time.Millisecond))
	}
}

// AblationBufferResult sweeps the buffer pool size for route
// evaluation (the paper fixes it at one page; this quantifies what
// larger pools buy).
type AblationBufferResult struct {
	PoolSizes []int
	// PagesPerRoute[method][i] corresponds to PoolSizes[i].
	PagesPerRoute map[string][]float64
	Methods       []string
	RouteLength   int
}

// RunAblationBufferSweep measures route-evaluation I/O as the buffer
// pool grows from 1 to 16 pages (block 2048, route length 40).
func RunAblationBufferSweep(setup Setup) (*AblationBufferResult, error) {
	g, err := setup.Network()
	if err != nil {
		return nil, err
	}
	rng := rand.New(rand.NewSource(setup.Seed + 9))
	routes, err := graph.RandomWalkRoutes(g, 100, 40, rng)
	if err != nil {
		return nil, err
	}
	if _, err := graph.ApplyRouteWeights(g, routes); err != nil {
		return nil, err
	}
	res := &AblationBufferResult{
		PoolSizes:     []int{1, 2, 4, 8, 16},
		PagesPerRoute: map[string][]float64{},
		Methods:       []string{"ccam-s", "dfs-am", "grid-file"},
		RouteLength:   40,
	}
	for _, name := range res.Methods {
		series := make([]float64, len(res.PoolSizes))
		for i, pool := range res.PoolSizes {
			m, err := buildMethod(name, g, 2048, pool, setup.Seed)
			if err != nil {
				return nil, err
			}
			f := m.File()
			var reads int64
			for _, r := range routes {
				if err := f.ResetIO(); err != nil {
					return nil, err
				}
				if _, err := f.EvaluateRouteCtx(context.Background(), r); err != nil {
					return nil, err
				}
				reads += f.DataIO().Reads
			}
			series[i] = float64(reads) / float64(len(routes))
		}
		res.PagesPerRoute[name] = series
	}
	return res, nil
}

// Print writes the buffer sweep.
func (r *AblationBufferResult) Print(w io.Writer) {
	fmt.Fprintf(w, "Ablation A2: buffer pool size vs route evaluation I/O (block = 2k, L = %d)\n", r.RouteLength)
	fmt.Fprintf(w, "%-11s", "method")
	for _, p := range r.PoolSizes {
		fmt.Fprintf(w, " %8s", fmt.Sprintf("pool=%d", p))
	}
	fmt.Fprintln(w)
	for _, m := range r.Methods {
		fmt.Fprintf(w, "%-11s", m)
		for i := range r.PoolSizes {
			fmt.Fprintf(w, " %8.2f", r.PagesPerRoute[m][i])
		}
		fmt.Fprintln(w)
	}
}

// AblationScaleResult sweeps the network size.
type AblationScaleResult struct {
	Sizes []int // node counts
	// CRR[method][i] corresponds to Sizes[i].
	CRR     map[string][]float64
	Methods []string
	// BuildTime[i] is the CCAM-S clustering time at Sizes[i].
	BuildTime []time.Duration
}

// RunAblationScale measures CRR and CCAM build time as the road map
// grows (block 1024, multilevel partitioner for the large sizes to keep
// CPU time bounded).
func RunAblationScale(setup Setup, sizes []int) (*AblationScaleResult, error) {
	if len(sizes) == 0 {
		sizes = []int{256, 1024, 4096, 16384}
	}
	res := &AblationScaleResult{
		Sizes:   sizes,
		CRR:     map[string][]float64{},
		Methods: []string{"ccam-s", "dfs-am", "bfs-am"},
	}
	for _, name := range res.Methods {
		res.CRR[name] = make([]float64, len(sizes))
	}
	for i, n := range sizes {
		opts := setup.MapOpts
		side := 1
		for side*side < n {
			side++
		}
		opts.Rows, opts.Cols = side, side
		g, err := graph.RoadMap(opts)
		if err != nil {
			return nil, err
		}
		for _, name := range res.Methods {
			start := time.Now()
			var m netfile.AccessMethod
			if name == "ccam-s" {
				// Multilevel keeps the largest sweeps tractable.
				cm, err := newCCAMWithMultilevel(1024, setup.Seed)
				if err != nil {
					return nil, err
				}
				if err := cm.Build(g); err != nil {
					return nil, err
				}
				m = cm
				res.BuildTime = append(res.BuildTime, time.Since(start))
			} else {
				m, err = buildMethod(name, g, 1024, 64, setup.Seed)
				if err != nil {
					return nil, err
				}
			}
			res.CRR[name][i] = graph.CRR(g, m.File().Placement())
		}
	}
	return res, nil
}

// Print writes the scale sweep.
func (r *AblationScaleResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation A3: network size vs CRR (block = 1k; ccam-s uses the multilevel partitioner)")
	fmt.Fprintf(w, "%-10s", "nodes")
	for _, m := range r.Methods {
		fmt.Fprintf(w, " %10s", m)
	}
	fmt.Fprintf(w, " %12s\n", "ccam build")
	for i, n := range r.Sizes {
		fmt.Fprintf(w, "%-10d", n)
		for _, m := range r.Methods {
			fmt.Fprintf(w, " %10.4f", r.CRR[m][i])
		}
		if i < len(r.BuildTime) {
			fmt.Fprintf(w, " %12s", r.BuildTime[i].Round(time.Millisecond))
		}
		fmt.Fprintln(w)
	}
}
