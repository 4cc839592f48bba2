package netfile

import (
	"context"
	"errors"
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
)

// TestRangeQueryMatchesBruteForce checks window queries against a
// filter over every node of the network.
func TestRangeQueryMatchesBruteForce(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)
	b := g.Bounds()
	rng := rand.New(rand.NewSource(14))
	for trial := 0; trial < 12; trial++ {
		x := b.Min.X + rng.Float64()*b.Width()
		y := b.Min.Y + rng.Float64()*b.Height()
		rect := geom.NewRect(geom.Point{X: x, Y: y},
			geom.Point{X: x + rng.Float64()*b.Width()/2, Y: y + rng.Float64()*b.Height()/2})
		want := map[graph.NodeID]bool{}
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			if rect.Contains(n.Pos) {
				want[id] = true
			}
		}
		got, err := f.RangeQueryCtx(context.Background(), rect)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != len(want) {
			t.Fatalf("trial %d: %d records, want %d", trial, len(got), len(want))
		}
		for _, r := range got {
			if !want[r.ID] {
				t.Fatalf("trial %d: unexpected %d", trial, r.ID)
			}
		}
	}
}

// TestNearestMatchesBruteForce checks k-nearest queries, from points on
// and off the map, against the sorted distances to every node.
func TestNearestMatchesBruteForce(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)
	b := g.Bounds()
	rng := rand.New(rand.NewSource(15))

	bruteforce := func(p geom.Point, k int) []float64 {
		var ds []float64
		for _, id := range g.NodeIDs() {
			n, _ := g.Node(id)
			ds = append(ds, math.Hypot(n.Pos.X-p.X, n.Pos.Y-p.Y))
		}
		sort.Float64s(ds)
		return ds[:k]
	}

	for trial := 0; trial < 15; trial++ {
		p := geom.Point{
			X: b.Min.X + rng.Float64()*b.Width()*1.2 - b.Width()*0.1, // sometimes outside
			Y: b.Min.Y + rng.Float64()*b.Height()*1.2 - b.Height()*0.1,
		}
		k := 1 + rng.Intn(8)
		want := bruteforce(p, k)
		got, err := f.Nearest(context.Background(), p, k)
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != k {
			t.Fatalf("trial %d: %d results, want %d", trial, len(got), k)
		}
		for i, rec := range got {
			d := math.Hypot(rec.Pos.X-p.X, rec.Pos.Y-p.Y)
			if math.Abs(d-want[i]) > 1e-9 {
				t.Fatalf("trial %d: rank %d dist %f, want %f", trial, i, d, want[i])
			}
		}
	}
	// A point far off the map: the window grows until it holds the map.
	far := geom.Point{X: b.Max.X + 10*b.Width(), Y: b.Max.Y + 10*b.Height()}
	got, err := f.Nearest(context.Background(), far, 2)
	if err != nil || len(got) != 2 {
		t.Fatalf("far point: %d results, %v", len(got), err)
	}
	for i, want := range bruteforce(far, 2) {
		if d := math.Hypot(got[i].Pos.X-far.X, got[i].Pos.Y-far.Y); math.Abs(d-want) > 1e-9 {
			t.Fatalf("far point rank %d dist %f, want %f", i, d, want)
		}
	}
	// Degenerate cases.
	if out, err := f.Nearest(context.Background(), geom.Point{}, 0); err != nil || out != nil {
		t.Fatalf("k=0: %v %v", out, err)
	}
	all, err := f.Nearest(context.Background(), geom.Point{}, g.NumNodes()+100)
	if err != nil || len(all) != g.NumNodes() {
		t.Fatalf("k>n: %d, %v", len(all), err)
	}
}

// TestSpatialIndexMaintainedUnderUpdates deletes records and checks that
// they vanish from window results. The subtest is named for the index
// under test, the Z-order index.
func TestSpatialIndexMaintainedUnderUpdates(t *testing.T) {
	t.Run("zorder", testSpatialIndexMaintainedUnderUpdates)
}

func testSpatialIndexMaintainedUnderUpdates(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(16))
	// Delete 30 nodes; they must vanish from spatial results.
	gone := map[graph.NodeID]bool{}
	for i := 0; i < 30; i++ {
		id := ids[rng.Intn(len(ids))]
		if gone[id] {
			continue
		}
		rec, err := f.DeleteRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RemoveNeighborLinks(rec); err != nil {
			t.Fatal(err)
		}
		gone[id] = true
	}
	all, err := f.RangeQueryCtx(context.Background(), g.Bounds())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumNodes()-len(gone) {
		t.Fatalf("range query after deletes = %d, want %d", len(all), g.NumNodes()-len(gone))
	}
	for _, r := range all {
		if gone[r.ID] {
			t.Fatalf("deleted node %d still in spatial index", r.ID)
		}
	}
}

// zorderModel is the reference the Z-order index is checked against: the
// live entries, one position per node id.
type zorderModel map[graph.NodeID]geom.Point

// window lists, in ascending key order, the ids whose quantized cell lies
// inside rect's quantized cells: a brute-force filter over every entry.
func (m zorderModel) window(q geom.Quantizer, rect geom.Rect) []graph.NodeID {
	cell := func(p geom.Point) (uint32, uint32) {
		x, y := q.Grid(p)
		return x >> 15, y >> 15
	}
	loX, loY := cell(rect.Min)
	hiX, hiY := cell(rect.Max)
	type hit struct {
		key uint64
		id  graph.NodeID
	}
	var hits []hit
	for id, p := range m {
		if x, y := cell(p); x >= loX && x <= hiX && y >= loY && y <= hiY {
			hits = append(hits, hit{geom.Interleave(x, y)<<32 | uint64(id), id})
		}
	}
	sort.Slice(hits, func(i, j int) bool { return hits[i].key < hits[j].key })
	ids := make([]graph.NodeID, len(hits))
	for i, h := range hits {
		ids[i] = h.id
	}
	return ids
}

// TestZOrderIndexMatchesBruteForce runs seeded schedules of bulk loads,
// puts (fresh, co-located and repeated) and removes (present and absent)
// against the Z-order index, long enough to split blocks and to empty
// them. After every step each of a handful of windows — inside the map,
// clipped by its bounds, of zero area, and wholly outside it — must
// yield exactly the brute-force filter of the live entries by quantized
// cell, in ascending key order.
func TestZOrderIndexMatchesBruteForce(t *testing.T) {
	bounds := geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 1000, Y: 1000})
	q := geom.NewQuantizer(bounds)
	splits, drops := 0, 0
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		z := &zorderIndex{quant: q}
		model := zorderModel{}
		nextID := graph.NodeID(1)
		// point draws a position: mostly inside a hot square (so blocks
		// fill and split), sometimes anywhere, sometimes on the bounds.
		point := func() geom.Point {
			switch r := rng.Intn(10); {
			case r < 6:
				return geom.Point{X: 400 + rng.Float64()*50, Y: 400 + rng.Float64()*50}
			case r < 9:
				return geom.Point{X: rng.Float64() * 1000, Y: rng.Float64() * 1000}
			default:
				return geom.Point{X: float64(rng.Intn(2)) * 1000, Y: rng.Float64() * 1000}
			}
		}
		// live lists every id ever put, in put order; anyLive draws from
		// it (seeded, unlike map order) and drops the removed ones it meets.
		var live []graph.NodeID
		anyLive := func() (graph.NodeID, geom.Point, bool) {
			for len(live) > 0 {
				j := rng.Intn(len(live))
				if p, ok := model[live[j]]; ok {
					return live[j], p, true
				}
				live[j] = live[len(live)-1]
				live = live[:len(live)-1]
			}
			return 0, geom.Point{}, false
		}
		window := func() geom.Rect {
			c := point()
			switch rng.Intn(5) {
			case 0: // zero area, often on a live entry
				if _, p, ok := anyLive(); ok && rng.Intn(2) == 0 {
					c = p
				}
				return geom.Rect{Min: c, Max: c}
			case 1: // clipped by the map bounds
				return geom.NewRect(geom.Point{X: c.X - 600, Y: c.Y - 600}, geom.Point{X: c.X + 600, Y: c.Y + 600})
			case 2: // wholly outside the map
				off := 1500 + rng.Float64()*500
				return geom.NewRect(geom.Point{X: c.X + off, Y: c.Y - off}, geom.Point{X: c.X + off + 100, Y: c.Y - off + 100})
			default:
				w := rng.Float64() * 120
				return geom.NewRect(geom.Point{X: c.X - w, Y: c.Y - w}, geom.Point{X: c.X + w, Y: c.Y + w})
			}
		}
		check := func(step int, what string) {
			t.Helper()
			if n, err := z.checkShape(); err != nil || n != len(model) {
				t.Fatalf("step %d (%s): %d keys, model %d: %v", step, what, n, len(model), err)
			}
			for w := 0; w < 4; w++ {
				rect := window()
				want := model.window(q, rect)
				var got []graph.NodeID
				z.search(rect, func(id graph.NodeID) bool {
					got = append(got, id)
					return true
				})
				if !slices.Equal(got, want) {
					t.Fatalf("seed %d step %d (%s): window %v yields %v, want %v", seed, step, what, rect, got, want)
				}
				if len(want) > 1 {
					// Stopping early yields a prefix.
					stop := 1 + rng.Intn(len(want)-1)
					got = got[:0]
					z.search(rect, func(id graph.NodeID) bool {
						got = append(got, id)
						return len(got) < stop
					})
					if !slices.Equal(got, want[:stop]) {
						t.Fatalf("seed %d step %d: window stopped after %d yields %v, want %v", seed, step, stop, got, want[:stop])
					}
				}
			}
		}

		n := rng.Intn(3000)
		if seed == 1 {
			n = 0 // the first put lands in an empty index
		}
		entries := make([]spatialEntry, n)
		for i := range entries {
			entries[i] = spatialEntry{pos: point(), id: nextID}
			model[nextID] = entries[i].pos
			live = append(live, nextID)
			nextID++
		}
		z.bulkLoad(entries)
		check(0, "bulk load")
		const steps = 2000
		for step := 1; step <= steps; step++ {
			// The first half of the schedule mostly puts, so blocks fill
			// and split; the second mostly removes and drains, so blocks
			// empty.
			puts, removes := 12, 18
			if step > steps/2 {
				puts, removes = 4, 15
			}
			blocks := len(z.blocks)
			var what string
			switch r := rng.Intn(20); {
			case r < puts || len(model) == 0:
				what = "put"
				p := point()
				if _, lp, ok := anyLive(); ok && rng.Intn(4) == 0 {
					p, what = lp, "put co-located"
				}
				z.put(p, nextID)
				model[nextID] = p
				live = append(live, nextID)
				nextID++
			case r < puts+2:
				what = "re-put"
				id, p, _ := anyLive()
				z.put(p, id)
			case r < removes:
				what = "remove"
				id, p, _ := anyLive()
				if err := z.remove(p, id); err != nil {
					t.Fatalf("seed %d step %d: remove %d: %v", seed, step, id, err)
				}
				delete(model, id)
			case r < 19:
				// Drain a small window: the removes that empty whole
				// blocks.
				what = "drain"
				c, w := point(), rng.Float64()*15
				rect := geom.NewRect(geom.Point{X: c.X - w, Y: c.Y - w}, geom.Point{X: c.X + w, Y: c.Y + w})
				for _, id := range model.window(q, rect) {
					if err := z.remove(model[id], id); err != nil {
						t.Fatalf("seed %d step %d: drain %d: %v", seed, step, id, err)
					}
					delete(model, id)
				}
			default:
				what = "remove absent"
				if err := z.remove(point(), nextID+graph.NodeID(rng.Intn(5))); !errors.Is(err, ErrNotFound) {
					t.Fatalf("seed %d step %d: remove of an absent entry = %v, want ErrNotFound", seed, step, err)
				}
			}
			switch d := len(z.blocks) - blocks; {
			case blocks > 0 && (what == "put" || what == "put co-located"):
				splits += d
			case d < 0 && blocks > 1:
				drops -= d
			}
			check(step, what)
		}
	}
	t.Logf("blocks split %d, emptied %d", splits, drops)
	if splits < 10 || drops < 10 {
		t.Fatalf("schedules split %d blocks and emptied %d: both need cover", splits, drops)
	}
}

// windows30 draws n query windows of the benchmark harness's netmix
// size — a square expected to hold 30 nodes — each centred on a random
// node's position.
func windows30(g *graph.Network, n int, rng *rand.Rand) []geom.Rect {
	ids := g.NodeIDs()
	b := g.Bounds()
	half := math.Sqrt(30*b.Width()*b.Height()/float64(len(ids))) / 2
	out := make([]geom.Rect, n)
	for i := range out {
		nd, _ := g.Node(ids[rng.Intn(len(ids))])
		out[i] = geom.NewRect(geom.Point{X: nd.Pos.X - half, Y: nd.Pos.Y - half}, geom.Point{X: nd.Pos.X + half, Y: nd.Pos.Y + half})
	}
	return out
}

// latticeFile loads the 256x256-lattice road map (seed 169) onto
// 2 KiB pages in id order: a 65,231-node file for benchmarks whose cost
// does not depend on the placement.
func latticeFile(b *testing.B) (*graph.Network, *File) {
	o := graph.MinneapolisLikeOpts()
	o.Rows, o.Cols = 256, 256
	g, err := graph.RoadMap(o)
	if err != nil {
		b.Fatal(err)
	}
	f, err := Create(Options{PageSize: 2048, PoolPages: 64, Bounds: g.Bounds()})
	if err != nil {
		b.Fatal(err)
	}
	size, budget := StoredSizer(g), PageBudget(2048)
	var pages [][]graph.NodeID
	used := budget
	for _, id := range g.NodeIDs() {
		if used+size(id) > budget {
			pages, used = append(pages, nil), 0
		}
		pages[len(pages)-1] = append(pages[len(pages)-1], id)
		used += size(id)
	}
	if err := f.BulkLoad(g, pages); err != nil {
		b.Fatal(err)
	}
	return g, f
}

// BenchmarkSpatialCandidates prices the window probe alone — the
// Z-order index's candidates for netmix-sized windows on the
// 256x256-lattice road map (seed 169), no record fetched. The records
// are packed onto pages in id order: the probe never reads a page, so
// the placement does not matter.
func BenchmarkSpatialCandidates(b *testing.B) {
	g, f := latticeFile(b)
	windows := windows30(g, 64, rand.New(rand.NewSource(1)))
	cands := 0
	count := func(graph.NodeID) bool { cands++; return true }
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := f.SpatialCandidates(windows[i%len(windows)], count); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(cands)/float64(b.N), "cands/op")
}
