package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"slices"
	"sync/atomic"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/netfile"
)

func pagesEqual(a, b [][]graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if len(a[i]) != len(b[i]) {
			return false
		}
		for j := range a[i] {
			if a[i][j] != b[i][j] {
				return false
			}
		}
	}
	return true
}

// TestClusterDeterministicAcrossWorkers is the determinism satellite:
// for a fixed seed, the parallel clusterer at 1, 2 and 8 workers must
// produce placements identical to the serial run — exact page-list
// equality, not just equal quality.
func TestClusterDeterministicAcrossWorkers(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	size := func(graph.NodeID) int { return 80 }
	pageSize := 1024
	for _, part := range []Bipartitioner{&RatioCut{}, &Multilevel{}} {
		t.Run(part.Name(), func(t *testing.T) {
			base, err := ClusterNodesIntoPagesOpts(g, size, pageSize, part, ClusterOptions{Workers: 1, Seed: 42})
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 8} {
				got, err := ClusterNodesIntoPagesOpts(g, size, pageSize, part, ClusterOptions{Workers: workers, Seed: 42})
				if err != nil {
					t.Fatal(err)
				}
				if !pagesEqual(base, got) {
					t.Fatalf("%d workers diverged from serial: %d vs %d pages", workers, len(got), len(base))
				}
			}
			// A different seed must be allowed to differ (sanity that the
			// equality check has teeth).
			other, err := ClusterNodesIntoPagesOpts(g, size, pageSize, part, ClusterOptions{Workers: 1, Seed: 43})
			if err != nil {
				t.Fatal(err)
			}
			if pagesEqual(base, other) {
				t.Log("seed 42 and 43 coincide (possible but suspicious)")
			}
		})
	}
}

// pagesHash is an FNV-64a digest of a page list: each page's length,
// then its ids in order, all as little-endian uint32s.
func pagesHash(pages [][]graph.NodeID) uint64 {
	h := fnv.New64a()
	var buf [4]byte
	put := func(v uint32) {
		binary.LittleEndian.PutUint32(buf[:], v)
		h.Write(buf[:])
	}
	for _, pg := range pages {
		put(uint32(len(pg)))
		for _, id := range pg {
			put(uint32(id))
		}
	}
	return h.Sum64()
}

// TestClusterPlacementGolden pins the placement itself across versions,
// not just its determinism within one: a change to the move pass, its
// heap or the child adjacency order that keeps page counts but breaks a
// tie differently changes these hashes.
func TestClusterPlacementGolden(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	size := func(graph.NodeID) int { return 80 }
	for _, tc := range []struct {
		part Bipartitioner
		want uint64
	}{
		{&RatioCut{}, 0x3c091d33e4151769},
		{&Multilevel{}, 0x7c5d5c576790864f},
	} {
		pages, err := ClusterNodesIntoPagesOpts(g, size, 1024, tc.part, ClusterOptions{Workers: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if got := pagesHash(pages); got != tc.want {
			t.Errorf("%s: placement hash %#x over %d pages, want %#x", tc.part.Name(), got, len(pages), tc.want)
		}
	}
	// The store's Create at the benchmark fixture's size: multilevel on
	// the 256×256 map with stored record sizes and a 2 KiB page's
	// budget, serial and at GOMAXPROCS workers.
	g, sizeOf := fixtureMap(t)
	for _, workers := range []int{1, 0} {
		pages, err := ClusterNodesIntoPagesOpts(g, sizeOf, netfile.PageBudget(2048), &Multilevel{}, ClusterOptions{Workers: workers, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		if got, want := pagesHash(pages), uint64(0xc02fef627bbaf916); got != want {
			t.Errorf("fixture map, %d workers: placement hash %#x over %d pages, want %#x", workers, got, len(pages), want)
		}
	}
}

// TestClusterSizeBookkeeping is the size-bookkeeping satellite: sizeOf
// must be consulted exactly once per node — the recursion carries
// subset byte sizes instead of re-scanning them on every frontier pop.
func TestClusterSizeBookkeeping(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	var calls atomic.Int64
	size := func(graph.NodeID) int {
		calls.Add(1)
		return 80
	}
	// Small pages force a deep recursion (~hundreds of frontier pops).
	pages, err := ClusterNodesIntoPagesOpts(g, size, 512, &Multilevel{}, ClusterOptions{Workers: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if got := calls.Load(); got != int64(g.NumNodes()) {
		t.Fatalf("sizeOf called %d times for %d nodes; recursion re-scans sizes", got, g.NumNodes())
	}
	// The carried totals must agree with reality: no page overflows and
	// every node is placed exactly once.
	seen := map[graph.NodeID]bool{}
	for _, pg := range pages {
		bytes := 0
		for _, id := range pg {
			if seen[id] {
				t.Fatalf("node %d placed twice", id)
			}
			seen[id] = true
			bytes += 80
		}
		if bytes > 512 {
			t.Fatalf("page holds %d bytes, page size 512", bytes)
		}
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("placed %d of %d nodes", len(seen), g.NumNodes())
	}
}

// TestSplitByIDs checks the index-remapped sub-Weighted splitter
// against a from-scratch BuildWeighted of each side, and sideOf, which
// reads a bipartition back from id lists, on its error paths.
func TestSplitByIDs(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := BuildWeighted(g, unitSize)
	rng := rand.New(rand.NewSource(21))
	seeded := make([]bool, w.N())
	w.seedPartition(rng, new(scratch), seeded, w.Total/2)
	a, b := w.split(seeded)
	side := make([]bool, w.N())
	if err := w.sideOf(a, b, side); err != nil {
		t.Fatal(err)
	}
	if !slices.Equal(side, seeded) {
		t.Fatal("sideOf did not read back the split it was given")
	}
	wa, wb := new(Weighted), new(Weighted)
	w.splitInto(side, make([]int32, w.N()), wa, wb)
	if wa.N() != len(a) || wb.N() != len(b) {
		t.Fatalf("sizes %d/%d want %d/%d", wa.N(), wb.N(), len(a), len(b))
	}
	if wa.Total+wb.Total != w.Total {
		t.Fatalf("total leak: %d + %d != %d", wa.Total, wb.Total, w.Total)
	}
	// Each side must equal an independent projection of the subgraph.
	for _, tc := range []struct {
		ids  []graph.NodeID
		got  *Weighted
		name string
	}{{a, wa, "A"}, {b, wb, "B"}} {
		keep := map[graph.NodeID]bool{}
		for _, id := range tc.ids {
			keep[id] = true
		}
		want := BuildWeighted(g.Subnetwork(keep), unitSize)
		if tc.got.N() != want.N() || tc.got.Total != want.Total {
			t.Fatalf("side %s shape mismatch", tc.name)
		}
		if !slices.Equal(tc.got.IDs, want.IDs) || !slices.Equal(tc.got.Size, want.Size) {
			t.Fatalf("side %s nodes mismatch", tc.name)
		}
		if !slices.Equal(tc.got.Off, want.Off) {
			t.Fatalf("side %s row offsets mismatch", tc.name)
		}
		if !slices.Equal(tc.got.Edges, want.Edges) {
			t.Fatalf("side %s rows mismatch", tc.name)
		}
	}
	// Error paths.
	if err := w.sideOf(a[:len(a)-1], b, side); err == nil {
		t.Fatal("missing node not rejected")
	}
	if err := w.sideOf(a[1:], append(append([]graph.NodeID{}, b...), b[0]), side); err == nil {
		t.Fatal("overlapping sides not rejected")
	}
	foreign := append(append([]graph.NodeID{}, b[:len(b)-1]...), graph.NodeID(1<<30))
	if err := w.sideOf(a, foreign, side); err == nil {
		t.Fatal("foreign node not rejected")
	}
}

// TestClusterPagesOutliveTheCall: the page lists one clustering returns
// share no memory with its workers' scratch or with a later call, so a
// second clustering in the same process leaves the first's pages as
// they were.
func TestClusterPagesOutliveTheCall(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	size := func(graph.NodeID) int { return 80 }
	first, err := ClusterNodesIntoPagesOpts(g, size, 1024, &Multilevel{}, ClusterOptions{Workers: 2, Seed: 42})
	if err != nil {
		t.Fatal(err)
	}
	kept := make([][]graph.NodeID, len(first))
	for i, pg := range first {
		kept[i] = slices.Clone(pg)
	}
	if _, err := ClusterNodesIntoPagesOpts(g, size, 1024, &Multilevel{}, ClusterOptions{Workers: 2, Seed: 43}); err != nil {
		t.Fatal(err)
	}
	if !pagesEqual(first, kept) {
		t.Fatal("a second clustering changed the first one's pages")
	}
}

// TestClusterAllocsPerPage bounds the allocations of a whole clustering,
// the projection onto the working set included, per page it returns:
// the recursion draws its arrays from per-worker scratch, so the count
// grows with the depth of the recursion and the number of workers, not
// with the number of nodes or subsets.
func TestClusterAllocsPerPage(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts differ under the race detector")
	}
	o := graph.MinneapolisLikeOpts()
	o.Rows, o.Cols = 64, 64
	g, err := graph.RoadMap(o)
	if err != nil {
		t.Fatal(err)
	}
	size := func(graph.NodeID) int { return 80 }
	var pages int
	allocs := testing.AllocsPerRun(3, func() {
		got, err := ClusterNodesIntoPagesOpts(g, size, 1024, &Multilevel{}, ClusterOptions{Workers: 1, Seed: 1})
		if err != nil {
			t.Fatal(err)
		}
		pages = len(got)
	})
	t.Logf("%.0f allocations for %d pages of %d nodes", allocs, pages, g.NumNodes())
	// About 1.1 today; one more allocation per split adds 1, one per
	// node 8 or more.
	if perPage := allocs / float64(pages); perPage > 1.5 {
		t.Fatalf("%.0f allocations for %d pages: %.2f a page, want at most 1.5", allocs, pages, perPage)
	}
}
