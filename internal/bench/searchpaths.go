package bench

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"

	"ccam/internal/graph"
	"ccam/internal/query"
)

// SearchPathsConfig parameterizes the graph-search experiment (ablation
// A4): shortest-path computations over each access method, in the
// spirit of the path-computation benchmarks the paper cites ([23]:
// "Can Proximity-Based Access Methods Efficiently Support Network
// Computations?").
type SearchPathsConfig struct {
	Setup Setup
	// BlockSize defaults to 2048.
	BlockSize int
	// Pairs is the number of random source/destination pairs
	// (default 50).
	Pairs int
	// PoolPages defaults to 8 — a small but realistic search buffer.
	PoolPages int
	// Methods defaults to MethodNames.
	Methods []string
}

// SearchPathsResult holds per-method search I/O.
type SearchPathsResult struct {
	Methods []string
	// DijkstraReads[m] is the mean data-page reads per Dijkstra query.
	DijkstraReads map[string]float64
	// AStarReads[m] is the mean data-page reads per A* query.
	AStarReads map[string]float64
	// Expanded is the mean node expansions (identical across methods;
	// reported once for context).
	DijkstraExpanded, AStarExpanded float64
}

// RunSearchPaths measures the data-page I/O of shortest-path queries —
// the aggregate computation whose Get-successors cost the paper's
// design targets — over every access method.
func RunSearchPaths(cfg SearchPathsConfig) (*SearchPathsResult, error) {
	if cfg.BlockSize == 0 {
		cfg.BlockSize = 2048
	}
	if cfg.Pairs == 0 {
		cfg.Pairs = 50
	}
	if cfg.PoolPages == 0 {
		cfg.PoolPages = 8
	}
	if len(cfg.Methods) == 0 {
		cfg.Methods = MethodNames
	}
	g, err := cfg.Setup.Network()
	if err != nil {
		return nil, err
	}
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(cfg.Setup.Seed + 13))
	type pair struct{ src, dst graph.NodeID }
	pairs := make([]pair, cfg.Pairs)
	for i := range pairs {
		pairs[i] = pair{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
	}

	res := &SearchPathsResult{
		Methods:       cfg.Methods,
		DijkstraReads: map[string]float64{},
		AStarReads:    map[string]float64{},
	}
	for _, name := range cfg.Methods {
		m, err := buildMethod(name, g, cfg.BlockSize, cfg.PoolPages, cfg.Setup.Seed)
		if err != nil {
			return nil, err
		}
		f := m.File()
		var dReads, aReads int64
		var dExp, aExp int
		for _, p := range pairs {
			if err := f.ResetIO(); err != nil {
				return nil, err
			}
			dp, err := query.ShortestPath(context.Background(), f, p.src, p.dst, 0)
			if err != nil && !errors.Is(err, query.ErrNoPath) {
				return nil, fmt.Errorf("bench: search %s dijkstra: %w", name, err)
			}
			dReads += f.DataIO().Reads
			dExp += dp.Expanded

			if err := f.ResetIO(); err != nil {
				return nil, err
			}
			ap, err := query.ShortestPath(context.Background(), f, p.src, p.dst, 0.8)
			if err != nil && !errors.Is(err, query.ErrNoPath) {
				return nil, fmt.Errorf("bench: search %s astar: %w", name, err)
			}
			aReads += f.DataIO().Reads
			aExp += ap.Expanded
		}
		n := float64(len(pairs))
		res.DijkstraReads[name] = float64(dReads) / n
		res.AStarReads[name] = float64(aReads) / n
		res.DijkstraExpanded = float64(dExp) / n
		res.AStarExpanded = float64(aExp) / n
	}
	return res, nil
}

// Print writes the search comparison.
func (r *SearchPathsResult) Print(w io.Writer) {
	fmt.Fprintln(w, "Ablation A4: shortest-path I/O per access method (block = 2k, 8-page buffer)")
	fmt.Fprintf(w, "%-11s %14s %14s\n", "method", "dijkstra reads", "a* reads")
	for _, m := range r.Methods {
		fmt.Fprintf(w, "%-11s %14.1f %14.1f\n", m, r.DijkstraReads[m], r.AStarReads[m])
	}
	fmt.Fprintf(w, "(mean expansions per query: dijkstra %.0f, a* %.0f)\n",
		r.DijkstraExpanded, r.AStarExpanded)
}
