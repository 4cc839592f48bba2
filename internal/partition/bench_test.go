package partition

import (
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// roadMap256 is the end-to-end benchmark's fixture shape:
// MinneapolisLikeOpts stretched to a 256×256 lattice (~65k nodes).
func roadMap256(tb testing.TB) *graph.Network {
	o := graph.MinneapolisLikeOpts()
	o.Rows, o.Cols = 256, 256
	o.Seed = 169 // the fixture's map seed
	g, err := graph.RoadMap(o)
	if err != nil {
		tb.Fatal(err)
	}
	return g
}

// fixtureMap is roadMap256 with its stored record sizes, computed once
// into a map so that sizeOf costs a lookup.
func fixtureMap(tb testing.TB) (*graph.Network, func(graph.NodeID) int) {
	g := roadMap256(tb)
	stored := netfile.StoredSizer(g)
	sizes := make(map[graph.NodeID]int, g.NumNodes())
	for _, id := range g.NodeIDs() {
		sizes[id] = stored(id)
	}
	return g, func(id graph.NodeID) int { return sizes[id] }
}

// BenchmarkClusterRoadMap256 times the Figure 2 recursion alone on the
// fixture map with stored record sizes and the budget of a 2 KiB page,
// one worker, under ratio-cut (the paper's figures) and multilevel (the
// store's Create). Record sizes are computed once, outside the timer,
// so each op is BuildWeighted plus the recursion.
func BenchmarkClusterRoadMap256(b *testing.B) {
	g, sizeOf := fixtureMap(b)
	budget := netfile.PageBudget(2048)
	for _, part := range []Bipartitioner{&RatioCut{}, &Multilevel{}} {
		b.Run(part.Name(), func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if _, err := ClusterNodesIntoPagesOpts(g, sizeOf, budget, part, ClusterOptions{Workers: 1, Seed: 1}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkBuildWeightedRoadMap256 times the serial prefix of a Create on
// the fixture map: stored record sizes and the projection onto the
// partitioner's working set, both done before the recursion forks.
func BenchmarkBuildWeightedRoadMap256(b *testing.B) {
	g := roadMap256(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		weightedSink = BuildWeighted(g, netfile.StoredSizer(g))
	}
}

// weightedSink keeps the compiler from discarding a benchmarked result.
var weightedSink *Weighted
