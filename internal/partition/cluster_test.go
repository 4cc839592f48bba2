package partition

import (
	"encoding/binary"
	"hash/fnv"
	"math/rand"
	"sync/atomic"
	"testing"

	"ccam/internal/graph"
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
		{&Multilevel{}, 0x76d3a4cf08436b7f},
	} {
		pages, err := ClusterNodesIntoPagesOpts(g, size, 1024, tc.part, ClusterOptions{Workers: 1, Seed: 42})
		if err != nil {
			t.Fatal(err)
		}
		if got := pagesHash(pages); got != tc.want {
			t.Errorf("%s: placement hash %#x over %d pages, want %#x", tc.part.Name(), got, len(pages), tc.want)
		}
	}
}

// TestClusterWrapperMatchesOpts pins the compatibility contract: the
// rng-based wrapper is exactly the Workers:1 path seeded by one Int63
// draw.
func TestClusterWrapperMatchesOpts(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	size := func(graph.NodeID) int { return 80 }
	viaWrapper, err := ClusterNodesIntoPages(g, size, 1024, &RatioCut{}, rand.New(rand.NewSource(7)))
	if err != nil {
		t.Fatal(err)
	}
	viaOpts, err := ClusterNodesIntoPagesOpts(g, size, 1024, &RatioCut{},
		ClusterOptions{Workers: 1, Seed: rand.New(rand.NewSource(7)).Int63()})
	if err != nil {
		t.Fatal(err)
	}
	if !pagesEqual(viaWrapper, viaOpts) {
		t.Fatal("wrapper and Opts paths diverged for the same derived seed")
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
// against a from-scratch BuildWeighted of each side.
func TestSplitByIDs(t *testing.T) {
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	w := BuildWeighted(g, unitSize)
	rng := rand.New(rand.NewSource(21))
	side := w.seedPartition(rng)
	a, b := w.split(side)
	wa, wb, err := w.splitByIDs(a, b)
	if err != nil {
		t.Fatal(err)
	}
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
		for i := range want.IDs {
			if tc.got.IDs[i] != want.IDs[i] || tc.got.Size[i] != want.Size[i] {
				t.Fatalf("side %s node %d mismatch", tc.name, i)
			}
			if len(tc.got.Adj[i]) != len(want.Adj[i]) {
				t.Fatalf("side %s adjacency %d: %d edges want %d", tc.name, i, len(tc.got.Adj[i]), len(want.Adj[i]))
			}
			for j, e := range want.Adj[i] {
				ge := tc.got.Adj[i][j]
				if ge.To != e.To || ge.W != e.W {
					t.Fatalf("side %s edge %d/%d mismatch: %+v want %+v", tc.name, i, j, ge, e)
				}
			}
		}
	}
	// Error paths.
	if _, _, err := w.splitByIDs(a[:len(a)-1], b); err == nil {
		t.Fatal("missing node not rejected")
	}
	if _, _, err := w.splitByIDs(append(append([]graph.NodeID{}, a...), b[0]), b); err == nil {
		t.Fatal("overlapping sides not rejected")
	}
	foreign := append(append([]graph.NodeID{}, b[:len(b)-1]...), graph.NodeID(1<<30))
	if _, _, err := w.splitByIDs(a, foreign); err == nil {
		t.Fatal("foreign node not rejected")
	}
}
