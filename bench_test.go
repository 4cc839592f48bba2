package ccam

// This file holds micro-benchmarks of the public API's operations. The
// paper's tables and figures and the repository's ablations have one
// home, cmd/ccam-bench (`go run ./cmd/ccam-bench -exp all`), whose page
// counts the committed BENCH_paper.json pins.

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sync/atomic"
	"testing"

	"ccam/internal/storage"
)

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
// nothing, whatever its length; a window query allocates its result
// slice and one block for all its records, whatever their count (and
// three slices more for a record too large for the block).
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
	inst, err := Open(Options{PageSize: 2048, PoolPages: 1024, Seed: 1, Metrics: true, TraceCapacity: 256})
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
	// Windows of about 30 nodes, the benchmark harness's size.
	bb := g.Bounds()
	half := math.Sqrt(30*bb.Width()*bb.Height()/float64(len(ids))) / 2
	wrng := rand.New(rand.NewSource(30))
	var windows [32]Rect
	for i := range windows {
		nd, err := g.Node(ids[wrng.Intn(len(ids))])
		if err != nil {
			t.Fatal(err)
		}
		windows[i] = NewRect(Point{X: nd.Pos.X - half, Y: nd.Pos.Y - half}, Point{X: nd.Pos.X + half, Y: nd.Pos.Y + half})
	}
	both("RangeQuery/30-node", 3, func(s *Store, i int) error {
		_, err := s.RangeQuery(ctx, windows[i%len(windows)])
		return err
	})
	// The operations that moved onto the pinned view keep the allocation
	// counts they had on the live file (measured there, on these inputs:
	// 1304, 65, 22): the read bracket adds nothing. A* pays one more, the
	// 16-byte box that carries the view value into query.Reader.
	rng := rand.New(rand.NewSource(13))
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
	gate("ShortestPath/A*", 1305, func(i int) error {
		p := pairs[i%len(pairs)]
		_, err := s.ShortestPath(ctx, p[0], p[1], 0.8)
		if errors.Is(err, ErrNoPath) {
			return nil
		}
		return err
	})
	gate("Nearest", 65, func(i int) error {
		_, err := s.Nearest(ctx, points[i%len(points)], 5)
		return err
	})
	gate("EvaluateRouteUnit", 22, func(i int) error {
		_, err := s.EvaluateRouteUnit(ctx, "u", units[i%len(units)])
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

// BenchmarkFindParallel measures point lookups from b.RunParallel's
// goroutines over shuffled ids with the whole file buffered: many
// readers pinning snapshots and borrowing pages at once. The /writer
// variant runs one goroutine beside them for the whole measurement,
// applying the benchmark harness's 32-op write batches, so readers pin
// while commits advance the LSN and borrow pages whose first touch by a
// batch waits for them; it reports the batches applied per read.
func BenchmarkFindParallel(b *testing.B) {
	for _, writer := range []bool{false, true} {
		name := "readers"
		if writer {
			name = "writer"
		}
		b.Run(name, func(b *testing.B) {
			s, g := paperStore(b, 512)
			defer s.Close()
			ctx := context.Background()
			ids := g.NodeIDs()
			rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			stop, done := make(chan struct{}), make(chan struct{})
			batches := 0
			go func() {
				defer close(done)
				if !writer {
					return
				}
				w := newMixedBatcher(g, 1)
				for {
					select {
					case <-stop:
						return
					default:
					}
					if err := s.Apply(ctx, w.batch(32)); err != nil {
						b.Error(err)
						return
					}
					batches++
				}
			}()
			var starts atomic.Int64
			b.ReportAllocs()
			b.ResetTimer()
			b.RunParallel(func(pb *testing.PB) {
				i := int(starts.Add(1)) * 7919
				for ; pb.Next(); i++ {
					if _, err := s.Find(ctx, ids[i%len(ids)]); err != nil {
						b.Error(err)
						return
					}
				}
			})
			b.StopTimer()
			close(stop)
			<-done
			if writer {
				b.ReportMetric(float64(batches)/float64(b.N), "batches/op")
			}
		})
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
	s, err := Open(Options{PageSize: 2048, PoolPages: 16, PoolShards: AutoPoolShards(16), Seed: 1,
		Metrics: true, TraceCapacity: 256})
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

// BenchmarkFindBatch measures one 256-id FindBatch, ids in shuffled
// order, with the pool holding the whole file: a batch is one set read
// on one pinned view, so ns/op over 256 is the per-id price.
func BenchmarkFindBatch(b *testing.B) {
	s, g := paperStore(b, 1024)
	defer s.Close()
	ids := g.NodeIDs()
	rand.New(rand.NewSource(8)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	batch := ids[:256]
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.FindBatch(context.Background(), batch); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkEvaluateRoutes measures one EvaluateRoutes call over 64
// random-walk routes of 20 nodes, with the pool holding the whole file.
func BenchmarkEvaluateRoutes(b *testing.B) {
	s, g := paperStore(b, 1024)
	defer s.Close()
	routes, err := RandomWalkRoutes(g, 64, 20, rand.New(rand.NewSource(8)))
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.EvaluateRoutes(context.Background(), routes); err != nil {
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
func BenchmarkInsertDeleteSecondOrder(b *testing.B) { benchInsertDelete(b, SecondOrder) }

// BenchmarkInsertDeleteHigherOrder is the same round trip under the
// higher-order policy, whose page sets add the PAG neighbors of the
// node's page, read off the PAG summary.
func BenchmarkInsertDeleteHigherOrder(b *testing.B) { benchInsertDelete(b, HigherOrder) }

func benchInsertDelete(b *testing.B, policy Policy) {
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
		if err := s.Apply(context.Background(), new(Batch).Delete(id, policy)); err != nil {
			b.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Insert(op, policy)); err != nil {
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
		if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, float32(e.Cost))); err != nil {
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
		if _, err := s.EvaluateRouteUnit(context.Background(), "u", units[i%len(units)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkShortestPath measures a file-resident shortest-path query:
// A* under the 0.8 lower bound the road map's costs honour, and
// Dijkstra (no bound).
func BenchmarkShortestPath(b *testing.B) {
	s, g := benchStore(b)
	defer s.Close()
	ids := g.NodeIDs()
	for _, bc := range []struct {
		name           string
		minCostPerUnit float64
	}{{"astar", 0.8}, {"dijkstra", 0}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(13))
			for i := 0; i < b.N; i++ {
				src, dst := ids[rng.Intn(len(ids))], ids[rng.Intn(len(ids))]
				if _, err := s.ShortestPath(context.Background(), src, dst, bc.minCostPerUnit); err != nil && !errors.Is(err, ErrNoPath) {
					b.Fatal(err)
				}
			}
		})
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
		if _, err := s.Nearest(context.Background(), p, 5); err != nil {
			b.Fatal(err)
		}
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
// written, per batch, and how many batches a checkpoint served.
// Generating the batch is about 1% of the time.
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
	moved0, writes0, ckpts0 := moved.Value(), s.IO().Writes, s.WALStats().Checkpoints
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := s.Apply(ctx, w.batch(32)); err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(moved.Value()-moved0)/float64(b.N), "records-moved/batch")
	b.ReportMetric(float64(s.IO().Writes-writes0)/float64(b.N), "pages-written/batch")
	b.ReportMetric(float64(s.WALStats().Checkpoints-ckpts0)/float64(b.N), "checkpoints/batch")
}
