package ccam

// This file holds one testing.B benchmark per table and figure of the
// paper's evaluation (Section 4) plus the repository's ablations and a
// set of micro-benchmarks of the individual operations. The experiment
// benchmarks drive the harness in internal/bench at paper scale and
// report the headline numbers via b.ReportMetric, so
//
//	go test -bench=. -benchmem
//
// regenerates every result. cmd/ccam-bench prints the full tables.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"testing"

	"ccam/internal/bench"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

func paperSetup() bench.Setup { return bench.DefaultSetup() }

// BenchmarkFig5CRRByBlockSize regenerates Figure 5: CRR per access
// method per disk block size. The reported metric is CCAM-S's CRR at
// the 1k block.
func BenchmarkFig5CRRByBlockSize(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig5(bench.Fig5Config{Setup: paperSetup()})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CRR["ccam-s"][1024], "ccam-s-crr@1k")
		b.ReportMetric(res.CRR["bfs-am"][1024], "bfs-am-crr@1k")
	}
}

// BenchmarkTable5NetworkOps regenerates Table 5: the I/O cost of the
// network operations. Reported metrics are CCAM's actual page accesses
// per operation.
func BenchmarkTable5NetworkOps(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunTable5(bench.Table5Config{Setup: paperSetup()})
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Method == "ccam-s" {
				b.ReportMetric(row.GetSuccsActual, "get-succs-pages")
				b.ReportMetric(row.GetASuccActual, "get-a-succ-pages")
				b.ReportMetric(row.DeleteActual, "delete-pages")
				b.ReportMetric(row.InsertActual, "insert-pages")
			}
		}
	}
}

// BenchmarkFig6RouteEvaluation regenerates Figure 6: route evaluation
// I/O versus route length. The reported metric is CCAM-S's average
// pages per route at L = 40.
func BenchmarkFig6RouteEvaluation(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig6(bench.Fig6Config{Setup: paperSetup()})
		if err != nil {
			b.Fatal(err)
		}
		last := len(res.RouteLengths) - 1
		b.ReportMetric(res.PagesPerRoute["ccam-s"][last], "ccam-s-pages@L40")
		b.ReportMetric(res.PagesPerRoute["bfs-am"][last], "bfs-am-pages@L40")
	}
}

// BenchmarkFig7ReorgPolicies regenerates Figure 7: per-insert I/O and
// CRR under the three reorganization policies. Reported metrics are
// the final average I/O per insert of the second- and higher-order
// policies.
func BenchmarkFig7ReorgPolicies(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(bench.Fig7Config{Setup: paperSetup()})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			last := len(s.AvgIO) - 1
			switch s.Policy {
			case netfile.SecondOrder:
				b.ReportMetric(s.AvgIO[last], "second-order-io")
				b.ReportMetric(s.CRR[last], "second-order-crr")
			case netfile.HigherOrder:
				b.ReportMetric(s.AvgIO[last], "higher-order-io")
			}
		}
	}
}

// BenchmarkAblationPartitioners compares the partitioning heuristics
// (ablation A1).
func BenchmarkAblationPartitioners(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationPartitioners(paperSetup(), 1024)
		if err != nil {
			b.Fatal(err)
		}
		for _, row := range res.Rows {
			if row.Name == "ratio-cut" {
				b.ReportMetric(row.CRR, "ratio-cut-crr")
			}
		}
	}
}

// BenchmarkAblationBufferSweep sweeps the route-evaluation buffer pool
// (ablation A2).
func BenchmarkAblationBufferSweep(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationBufferSweep(paperSetup())
		if err != nil {
			b.Fatal(err)
		}
		s := res.PagesPerRoute["ccam-s"]
		b.ReportMetric(s[0], "pool1-pages")
		b.ReportMetric(s[len(s)-1], "pool16-pages")
	}
}

// BenchmarkAblationScale sweeps the network size (ablation A3). Kept
// to 4k nodes so the benchmark suite stays fast; cmd/ccam-bench runs
// the 16k point.
func BenchmarkAblationScale(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationScale(paperSetup(), []int{256, 1024, 4096})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CRR["ccam-s"][len(res.Sizes)-1], "ccam-s-crr@4k-nodes")
	}
}

// --- micro-benchmarks of the public API ---

func benchStore(b *testing.B) (*Store, *Network) {
	return paperStore(b, 16)
}

// paperStore builds the paper-scale map behind a pool of poolPages
// frames (the file has about 140 data pages).
func paperStore(tb testing.TB, poolPages int) (*Store, *Network) {
	tb.Helper()
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		tb.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: poolPages, Seed: 1})
	if err != nil {
		tb.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		tb.Fatal(err)
	}
	return s, g
}

// TestReadPathAllocs gates the allocations of the search operations
// with metrics off and the whole file buffered, where the allocator
// used to be most of the read path. A Find allocates the record it
// returns; GetSuccessors the result slice and one record per
// successor; a route evaluation reads every hop in place and allocates
// nothing, whatever its length.
func TestReadPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector allocates")
	}
	s, g := paperStore(t, 1024)
	defer s.Close()
	ctx := context.Background()
	ids := g.NodeIDs()
	gate := func(name string, max float64, op func(i int) error) float64 {
		t.Helper()
		i := 0
		got := testing.AllocsPerRun(200, func() {
			if err := op(i); err != nil {
				t.Fatal(err)
			}
			i++
		})
		if got > max {
			t.Errorf("%s: %.1f allocs/op, want <= %.0f", name, got, max)
		}
		return got
	}
	// The instrumented path has the same budget: with Metrics and tracing
	// on — the daemon's configuration — an operation allocates no more
	// than with them off. Its account is borrowed, not allocated.
	inst, err := OpenWith(WithPageSize(2048), WithPoolPages(1024), WithSeed(1), WithMetrics(), WithTracing(256))
	if err != nil {
		t.Fatal(err)
	}
	defer inst.Close()
	if err := inst.Build(g); err != nil {
		t.Fatal(err)
	}
	both := func(name string, max float64, op func(s *Store, i int) error) {
		t.Helper()
		off := gate(name, max, func(i int) error { return op(s, i) })
		gate(name+"/Metrics+Tracing", off, func(i int) error { return op(inst, i) })
	}
	both("Find", 3, func(s *Store, i int) error {
		_, err := s.Find(ctx, ids[i%len(ids)])
		return err
	})
	both("GetSuccessors", 16, func(s *Store, i int) error {
		_, err := s.GetSuccessors(ctx, ids[i%len(ids)])
		return err
	})
	for _, hops := range []int{4, 20, 64} {
		routes, err := RandomWalkRoutes(g, 32, hops, rand.New(rand.NewSource(8)))
		if err != nil {
			t.Fatal(err)
		}
		both(fmt.Sprintf("EvaluateRoute/%d-hop", hops), 2, func(s *Store, i int) error {
			_, err := s.EvaluateRoute(ctx, routes[i%len(routes)])
			return err
		})
	}
	// The operations that moved onto the pinned view keep the allocation
	// counts they had on the live file (measured there, on these inputs:
	// 1304, 65, 22): the read bracket adds nothing. A* pays one more, the
	// 16-byte box that carries the view value into query.Reader.
	rng := rand.New(rand.NewSource(13))
	bb := g.Bounds()
	var pairs [32][2]NodeID
	var points [32]Point
	for i := range pairs {
		pairs[i] = [2]NodeID{ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]}
		points[i] = Point{X: bb.Min.X + rng.Float64()*bb.Width(), Y: bb.Min.Y + rng.Float64()*bb.Height()}
	}
	walks, err := RandomWalkRoutes(g, 8, 21, rand.New(rand.NewSource(12)))
	if err != nil {
		t.Fatal(err)
	}
	units := make([][][2]NodeID, len(walks))
	for i, r := range walks {
		for j := 0; j+1 < len(r); j++ {
			units[i] = append(units[i], [2]NodeID{r[j], r[j+1]})
		}
	}
	gate("ShortestPathAStar", 1305, func(i int) error {
		p := pairs[i%len(pairs)]
		_, err := s.ShortestPathAStar(p[0], p[1], 0.8)
		if errors.Is(err, ErrNoPath) {
			return nil
		}
		return err
	})
	gate("Nearest", 65, func(i int) error {
		_, err := s.Nearest(points[i%len(points)], 5)
		return err
	})
	gate("EvaluateRouteUnit", 22, func(i int) error {
		_, err := s.EvaluateRouteUnit("u", units[i%len(units)])
		return err
	})
}

// BenchmarkBuildStatic measures the CCAM-S create over the paper-scale
// map.
func BenchmarkBuildStatic(b *testing.B) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{PageSize: 2048, Seed: int64(i)})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Build(g); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkBuildDynamic measures the CCAM-D incremental create.
func BenchmarkBuildDynamic(b *testing.B) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Open(Options{PageSize: 2048, Seed: int64(i), Dynamic: true})
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Build(g); err != nil {
			b.Fatal(err)
		}
		s.Close()
	}
}

// BenchmarkFind measures point lookups with metrics disabled (the
// default). Compare BenchmarkFindInstrumented: the allocs/op of the
// two must match, since the disabled path is one nil check.
func BenchmarkFind(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	ids := g.NodeIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Find(context.Background(), ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindChecked measures the same point lookups through a
// CheckedStore: every physical data-page read pays a CRC32-C
// verification (hardware-accelerated Castagnoli). The acceptance bar
// for the integrity layer is ns/op within 10% of BenchmarkFind.
func BenchmarkFindChecked(b *testing.B) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		b.Fatal(err)
	}
	cs, err := storage.NewCheckedStore(storage.NewMemStore(2048 + storage.ChecksumTrailerLen))
	if err != nil {
		b.Fatal(err)
	}
	opts := Options{PoolPages: 16, Seed: 1}
	s, err := newStore(opts, nil, cs, nil)
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		b.Fatal(err)
	}
	ids := g.NodeIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Find(context.Background(), ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFindInstrumented measures the same point lookups on a store
// opened the way cmd/ccam-serve opens its own — metrics on, a 256-entry
// trace ring, the pool sharded by AutoPoolShards — pricing the
// observability layer as it is served: the ns/op delta against
// BenchmarkFind is the full per-operation cost of the account, the
// counters, the latency histogram and the trace ring.
func BenchmarkFindInstrumented(b *testing.B) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		b.Fatal(err)
	}
	s, err := OpenWith(WithPageSize(2048), WithPoolPages(16), WithPoolShards(AutoPoolShards(16)), WithSeed(1),
		WithMetrics(), WithTracing(256))
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		b.Fatal(err)
	}
	ids := g.NodeIDs()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Find(context.Background(), ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkGetSuccessors measures adjacency retrieval.
func BenchmarkGetSuccessors(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	ids := g.NodeIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.GetSuccessors(context.Background(), ids[i%len(ids)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateRoute measures a 20-hop route evaluation.
func BenchmarkEvaluateRoute(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	rng := rand.New(rand.NewSource(8))
	routes, err := RandomWalkRoutes(g, 64, 20, rng)
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateRoute(context.Background(), routes[i%len(routes)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQuery measures a 10%-of-map window query.
func BenchmarkRangeQuery(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	bb := g.Bounds()
	window := NewRect(
		Point{X: bb.Min.X + bb.Width()*0.45, Y: bb.Min.Y + bb.Height()*0.45},
		Point{X: bb.Min.X + bb.Width()*0.55, Y: bb.Min.Y + bb.Height()*0.55},
	)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.RangeQuery(context.Background(), window); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkRangeQueryWindow30 measures window queries of the benchmark
// harness's netmix size — a square expected to hold 30 nodes, centred on
// a random node's position — on its 256x256-lattice road map (seed 169),
// the whole file buffered. Unlike BenchmarkRangeQuery's one large window
// on the paper-scale map, most of the time here is the spatial probe.
func BenchmarkRangeQueryWindow30(b *testing.B) {
	o := MinneapolisLikeOpts()
	o.Rows, o.Cols = 256, 256
	g, err := RoadMap(o)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: 8192, Seed: 1})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		b.Fatal(err)
	}
	ids := g.NodeIDs()
	bb := g.Bounds()
	half := math.Sqrt(30*bb.Width()*bb.Height()/float64(len(ids))) / 2
	rng := rand.New(rand.NewSource(1))
	windows := make([]Rect, 64)
	for i := range windows {
		nd, _ := g.Node(ids[rng.Intn(len(ids))])
		windows[i] = NewRect(Point{X: nd.Pos.X - half, Y: nd.Pos.Y - half}, Point{X: nd.Pos.X + half, Y: nd.Pos.Y + half})
	}
	ctx := context.Background()
	recs := 0
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, err := s.RangeQuery(ctx, windows[i%len(windows)])
		if err != nil {
			b.Fatal(err)
		}
		recs += len(out)
	}
	b.ReportMetric(float64(recs)/float64(b.N), "records/op")
}

// BenchmarkInsertDeleteSecondOrder measures a node delete+insert round
// trip under the second-order policy.
func BenchmarkInsertDeleteSecondOrder(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	ids := g.NodeIDs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		id := ids[i%len(ids)]
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			b.Fatal(err)
		}
		if err := s.Delete(id, SecondOrder); err != nil {
			b.Fatal(err)
		}
		if err := s.Insert(op, SecondOrder); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSetEdgeCost measures the IVHS travel-time update.
func BenchmarkSetEdgeCost(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	edges := g.Edges()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e := edges[i%len(edges)]
		if err := s.SetEdgeCost(e.From, e.To, float32(e.Cost)); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateRouteUnit measures an aggregate query over a
// 20-segment route-unit (e.g. comparing bus-route ridership).
func BenchmarkEvaluateRouteUnit(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	rng := rand.New(rand.NewSource(12))
	routes, err := RandomWalkRoutes(g, 8, 21, rng)
	if err != nil {
		b.Fatal(err)
	}
	units := make([][][2]NodeID, len(routes))
	for i, r := range routes {
		for j := 0; j+1 < len(r); j++ {
			units[i] = append(units[i], [2]NodeID{r[j], r[j+1]})
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateRouteUnit("u", units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestPathAStar measures a file-resident A* query.
func BenchmarkShortestPathAStar(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(13))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
		if _, err := s.ShortestPathAStar(src, dst, 0.8); err != nil && !errors.Is(err, ErrNoPath) {
			b.Fatal(err)
		}
	}
}

// BenchmarkNearest measures k-nearest-neighbor queries through the
// Z-order index.
func BenchmarkNearest(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	bb := g.Bounds()
	rng := rand.New(rand.NewSource(14))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p := Point{X: bb.Min.X + rng.Float64()*bb.Width(), Y: bb.Min.Y + rng.Float64()*bb.Height()}
		if _, err := s.Nearest(p, 5); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkAblationSearchPaths runs the graph-search comparison
// (ablation A4).
func BenchmarkAblationSearchPaths(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunSearchPaths(bench.SearchPathsConfig{Setup: paperSetup(), Pairs: 25})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.DijkstraReads["ccam-s"], "ccam-dijkstra-reads")
		b.ReportMetric(res.AStarReads["ccam-s"], "ccam-astar-reads")
	}
}

// BenchmarkAblationLazyPolicy runs the delayed-reorganization
// comparison (ablation A5).
func BenchmarkAblationLazyPolicy(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunFig7(bench.Fig7Config{
			Setup:     paperSetup(),
			Policies:  []netfile.Policy{netfile.FirstOrder, netfile.Lazy},
			LazyEvery: 4,
			Points:    4,
		})
		if err != nil {
			b.Fatal(err)
		}
		for _, s := range res.Series {
			if s.Policy == netfile.Lazy {
				b.ReportMetric(s.AvgIO[len(s.AvgIO)-1], "lazy-io")
				b.ReportMetric(s.CRR[len(s.CRR)-1], "lazy-crr")
			}
		}
	}
}

// BenchmarkAblationTopology runs the network-family comparison
// (ablation A6).
func BenchmarkAblationTopology(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationTopology(paperSetup())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CRR["radial-city"]["ccam-s"], "radial-ccam-crr")
		b.ReportMetric(res.CRR["random-geometric"]["ccam-s"], "geo-ccam-crr")
	}
}

// BenchmarkAblationMixedWorkload runs the query/update mix (ablation
// A7), shortened to 200 operations per fraction.
func BenchmarkAblationMixedWorkload(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunMixedWorkload(bench.MixedConfig{
			Setup: paperSetup(), Ops: 200, UpdateFracs: []float64{0, 0.3},
		})
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.PagesPerOp["ccam-s"][1], "ccam-pages-per-op@30pct")
	}
}

// BenchmarkAblationSpatialOrder runs the proximity-ordering comparison
// (ablation A8).
func BenchmarkAblationSpatialOrder(b *testing.B) {
	for i := 0; i < b.N; i++ {
		res, err := bench.RunAblationSpatialOrder(paperSetup())
		if err != nil {
			b.Fatal(err)
		}
		b.ReportMetric(res.CRR["hilbert-am"][1024], "hilbert-crr@1k")
		b.ReportMetric(res.CRR["zcurve-am"][1024], "zcurve-crr@1k")
	}
}

// mixedBatcher generates the write mix of benchmark/writer.go against a
// mirror of the store's network: 60% SetEdgeCost, 15% InsertEdge to a
// node two hops away, 15% DeleteEdge, 5% node Insert beside an edge and
// 5% node Delete, all under the second-order policy. It deletes only
// what it inserted, and a delete drawn with nothing left to delete
// becomes an insert, so every batch is valid.
type mixedBatcher struct {
	g     *Network
	rng   *rand.Rand
	base  []NodeID
	own   NodeID // ids from here up are nodes the batcher inserted
	next  NodeID
	edges [][2]NodeID
	nodes []NodeID
}

func newMixedBatcher(g *Network, seed int64) *mixedBatcher {
	base := g.NodeIDs()
	own := base[len(base)-1] + 1
	return &mixedBatcher{g: g.Clone(), rng: rand.New(rand.NewSource(seed)), base: base, own: own, next: own}
}

func (w *mixedBatcher) cost() float32 { return float32(1 + w.rng.Float64()*400) }

// succ draws a successor of u among the map's own nodes.
func (w *mixedBatcher) succ(u NodeID) (NodeID, bool) {
	ss := w.g.Successors(u)
	if len(ss) == 0 {
		return 0, false
	}
	v := ss[w.rng.Intn(len(ss))]
	return v, v < w.own
}

func (w *mixedBatcher) insertEdge(b *Batch) bool {
	u := w.base[w.rng.Intn(len(w.base))]
	mid, ok := w.succ(u)
	if !ok {
		return false
	}
	v, ok := w.succ(mid)
	if !ok || v == u {
		return false
	}
	c := w.cost()
	if w.g.AddEdge(Edge{From: u, To: v, Cost: float64(c), Weight: 1}) != nil {
		return false // already linked
	}
	w.edges = append(w.edges, [2]NodeID{u, v})
	b.InsertEdge(u, v, c, SecondOrder)
	return true
}

func (w *mixedBatcher) insertNode(b *Batch, born map[NodeID]bool) bool {
	a := w.base[w.rng.Intn(len(w.base))]
	to, ok := w.succ(a)
	if !ok {
		return false
	}
	na, _ := w.g.Node(a)
	nb, _ := w.g.Node(to)
	attrs := make([]byte, 24)
	w.rng.Read(attrs)
	rec := &Record{
		ID:    w.next,
		Pos:   Point{X: (na.Pos.X + nb.Pos.X) / 2, Y: (na.Pos.Y + nb.Pos.Y) / 2},
		Attrs: attrs,
		Succs: []SuccEntry{{To: to, Cost: w.cost()}},
		Preds: []NodeID{a},
	}
	w.next++
	w.g.AddNode(Node{ID: rec.ID, Pos: rec.Pos})
	w.g.AddEdge(Edge{From: rec.ID, To: to, Cost: 1, Weight: 1})
	w.g.AddEdge(Edge{From: a, To: rec.ID, Cost: 1, Weight: 1})
	w.nodes = append(w.nodes, rec.ID)
	born[rec.ID] = true
	b.Insert(&InsertOp{Rec: rec, PredCosts: []float32{w.cost()}}, SecondOrder)
	return true
}

// batch returns the next n-op batch.
func (w *mixedBatcher) batch(n int) *Batch {
	b := new(Batch)
	born := map[NodeID]bool{}
	for b.Len() < n {
		switch r := w.rng.Intn(100); {
		case r < 60:
			u := w.base[w.rng.Intn(len(w.base))]
			if ss := w.g.Successors(u); len(ss) > 0 {
				b.SetEdgeCost(u, ss[w.rng.Intn(len(ss))], w.cost())
			}
		case r < 75:
			w.insertEdge(b)
		case r < 90:
			if len(w.edges) == 0 {
				w.insertEdge(b)
				break
			}
			i := w.rng.Intn(len(w.edges))
			e := w.edges[i]
			w.edges[i] = w.edges[len(w.edges)-1]
			w.edges = w.edges[:len(w.edges)-1]
			w.g.RemoveEdge(e[0], e[1])
			b.DeleteEdge(e[0], e[1], SecondOrder)
		case r < 95:
			w.insertNode(b, born)
		default:
			if len(w.nodes) == 0 {
				w.insertNode(b, born)
				break
			}
			i := w.rng.Intn(len(w.nodes))
			id := w.nodes[i]
			if born[id] {
				break // as the harness: a node is not born and deleted in one batch
			}
			w.nodes[i] = w.nodes[len(w.nodes)-1]
			w.nodes = w.nodes[:len(w.nodes)-1]
			w.g.RemoveNode(id)
			b.Delete(id, SecondOrder)
		}
	}
	return b
}

// BenchmarkApplyMixedBatch measures one durable 32-op Apply of the
// benchmark harness's write mix on a file-backed WAL store (a 64x64
// road map, the whole file buffered, a checkpoint every 256 KiB of log
// so that dirtied pages reach the store), and reports what the batch's
// reorganizations did: records that changed page and data pages
// written, per batch. Generating the batch is about 1% of the time.
func BenchmarkApplyMixedBatch(b *testing.B) {
	o := MinneapolisLikeOpts()
	o.Rows, o.Cols = 64, 64
	g, err := RoadMap(o)
	if err != nil {
		b.Fatal(err)
	}
	s, err := Open(Options{
		PageSize: 2048, PoolPages: 4096, Seed: 1, Metrics: true,
		Path: filepath.Join(b.TempDir(), "bench.ccam"), WAL: true, CheckpointBytes: 256 << 10,
	})
	if err != nil {
		b.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		b.Fatal(err)
	}
	w := newMixedBatcher(g, 1)
	ctx := context.Background()
	moved := s.Metrics().Counter("ccam_reorg_records_moved_total")
	moved0, writes0 := moved.Value(), s.IO().Writes
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply(ctx, w.batch(32)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(moved.Value()-moved0)/float64(b.N), "records-moved/batch")
	b.ReportMetric(float64(s.IO().Writes-writes0)/float64(b.N), "pages-written/batch")
}
