// Package bench reproduces every table and figure of the paper's
// experimental evaluation (Section 4) plus the ablations called out in
// DESIGN.md. Each experiment is a pure function from a configuration to
// a result struct; cmd/ccam-bench and the repository's testing.B
// benchmarks print them in the paper's format.
//
// Measurement protocol: the paper reports "number of data pages
// accessed". Search operations count physical data-page reads; update
// operations count reads+writes, matching the paper's
// write-cost-equals-read-cost convention (see internal/costmodel).
// Index pages and the free-space map are memory resident, as the paper
// assumes, and are never charged.
package bench

import (
	"fmt"
	"math/rand"

	"ccam/internal/ccam"
	"ccam/internal/graph"
	"ccam/internal/gridfile"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/topo"
)

// MethodNames lists the access methods of the paper's comparison, in
// the paper's order.
var MethodNames = []string{"ccam-s", "ccam-d", "dfs-am", "grid-file", "bfs-am"}

// MethodNamesWithWDFS additionally includes WDFS-AM (used in the route
// evaluation experiment, Fig. 6).
var MethodNamesWithWDFS = []string{"ccam-s", "ccam-d", "dfs-am", "wdfs-am", "grid-file", "bfs-am"}

// NewMethod constructs an unbuilt access method by name.
func NewMethod(name string, pageSize, poolPages int, seed int64) (netfile.AccessMethod, error) {
	switch name {
	case "ccam-s":
		return ccam.New(ccam.Config{File: netfile.Options{PageSize: pageSize, PoolPages: poolPages}, Seed: seed})
	case "ccam-d":
		return ccam.New(ccam.Config{File: netfile.Options{PageSize: pageSize, PoolPages: poolPages}, Seed: seed, Dynamic: true})
	case "dfs-am":
		return topo.New(topo.Config{Kind: topo.DFS, PageSize: pageSize, PoolPages: poolPages, Seed: seed})
	case "bfs-am":
		return topo.New(topo.Config{Kind: topo.BFS, PageSize: pageSize, PoolPages: poolPages, Seed: seed})
	case "wdfs-am":
		return topo.New(topo.Config{Kind: topo.WDFS, PageSize: pageSize, PoolPages: poolPages, Seed: seed})
	case "hilbert-am":
		return topo.New(topo.Config{Kind: topo.Hilbert, PageSize: pageSize, PoolPages: poolPages, Seed: seed})
	case "zcurve-am":
		return topo.New(topo.Config{Kind: topo.ZCurve, PageSize: pageSize, PoolPages: poolPages, Seed: seed})
	case "grid-file":
		return gridfile.New(gridfile.Config{PageSize: pageSize, PoolPages: poolPages})
	default:
		return nil, fmt.Errorf("bench: unknown access method %q", name)
	}
}

// Setup configures the common workload.
type Setup struct {
	// MapOpts generates the benchmark network (default: the
	// Minneapolis-scale synthetic road map).
	MapOpts graph.RoadMapOpts
	// Seed drives workload randomness (sampling, route walks).
	Seed int64
}

// DefaultSetup returns the paper-scale configuration.
func DefaultSetup() Setup {
	return Setup{MapOpts: graph.MinneapolisLikeOpts(), Seed: 42}
}

// Network builds the benchmark road map.
func (s Setup) Network() (*graph.Network, error) {
	return graph.RoadMap(s.MapOpts)
}

// buildMethod constructs and builds one named method over g.
func buildMethod(name string, g *graph.Network, pageSize, poolPages int, seed int64) (netfile.AccessMethod, error) {
	m, err := NewMethod(name, pageSize, poolPages, seed)
	if err != nil {
		return nil, err
	}
	if err := m.Build(g); err != nil {
		return nil, fmt.Errorf("bench: build %s: %w", name, err)
	}
	return m, nil
}

// NetworkStats captures the model parameters of a built file.
type NetworkStats struct {
	Nodes, Edges int
	AvgA         float64 // |A|
	Lambda       float64 // λ
	Gamma        float64 // γ (records per data page)
	CRR          float64 // α
	WCRR         float64
	Pages        int
}

// StatsOf measures the cost-model parameters of method m over g.
func StatsOf(m netfile.AccessMethod, g *graph.Network) NetworkStats {
	f := m.File()
	p := f.Placement()
	st := NetworkStats{
		Nodes:  g.NumNodes(),
		Edges:  g.NumEdges(),
		AvgA:   g.AvgSuccessors(),
		Lambda: g.AvgNeighbors(),
		CRR:    graph.CRR(g, p),
		WCRR:   graph.WCRR(g, p),
		Pages:  f.NumPages(),
	}
	if st.Pages > 0 {
		st.Gamma = float64(st.Nodes) / float64(st.Pages)
	}
	return st
}

// sampleNodes returns a random sample of fraction frac of g's nodes.
func sampleNodes(g *graph.Network, frac float64, rng *rand.Rand) []graph.NodeID {
	ids := g.NodeIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	n := int(float64(len(ids)) * frac)
	if n < 1 {
		n = 1
	}
	return ids[:n]
}

// newCCAMWithMultilevel builds a CCAM-S instance using the multilevel
// partitioner and the full worker pool, which scales far better than
// ratio-cut restarts on large maps.
func newCCAMWithMultilevel(pageSize int, seed int64) (netfile.AccessMethod, error) {
	return ccam.New(ccam.Config{
		File:        netfile.Options{PageSize: pageSize, PoolPages: 64},
		Seed:        seed,
		Partitioner: &partition.Multilevel{},
	})
}
