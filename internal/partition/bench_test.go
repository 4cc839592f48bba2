package partition

import (
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// BenchmarkClusterRoadMap256 times the Figure 2 recursion alone on the
// end-to-end benchmark's fixture shape: MinneapolisLikeOpts stretched to
// a 256×256 lattice (~65k nodes), stored record sizes and the budget of
// a 2 KiB page, ratio-cut, one worker. Record sizes are computed once,
// outside the timer, so each op is BuildWeighted plus the recursion.
func BenchmarkClusterRoadMap256(b *testing.B) {
	o := graph.MinneapolisLikeOpts()
	o.Rows, o.Cols = 256, 256
	o.Seed = 169 // the fixture's map seed
	g, err := graph.RoadMap(o)
	if err != nil {
		b.Fatal(err)
	}
	stored := netfile.StoredSizer(g)
	sizes := make(map[graph.NodeID]int, g.NumNodes())
	for _, id := range g.NodeIDs() {
		sizes[id] = stored(id)
	}
	sizeOf := func(id graph.NodeID) int { return sizes[id] }
	budget := netfile.PageBudget(2048)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := ClusterNodesIntoPagesOpts(g, sizeOf, budget, &RatioCut{}, ClusterOptions{Workers: 1, Seed: 1}); err != nil {
			b.Fatal(err)
		}
	}
}
