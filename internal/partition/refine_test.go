package partition

import (
	"math/rand"
	"slices"
	"testing"

	"ccam/internal/graph"
)

// randomWorkingSet is a seeded sparse graph of n nodes with record-like
// sizes, and a random two-sided assignment of it.
func randomWorkingSet(rng *rand.Rand, n int) (*Weighted, []bool) {
	g := graph.NewNetwork()
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{ID: graph.NodeID(i)})
	}
	for i := 0; i < 3*n; i++ {
		a, b := graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n))
		if a != b {
			g.AddEdge(graph.Edge{From: a, To: b, Weight: 1}) // a duplicate is refused
		}
	}
	sizes := make([]int, n)
	for i := range sizes {
		sizes[i] = 40 + rng.Intn(80)
	}
	w := BuildWeighted(g, func(id graph.NodeID) int { return sizes[id] })
	side := make([]bool, n)
	for i := range side {
		side[i] = rng.Intn(2) == 1
	}
	return w, side
}

// TestRefineProperties checks what Refine promises on seeded random
// working sets at three capacities, from "no slack beyond the fuller
// side" to "either side could take everything": no side ends above the
// capacity, the cut never rises, true means it fell and false means
// side is untouched, the result is a fixed point, and equal inputs give
// equal outputs.
func TestRefineProperties(t *testing.T) {
	improved := 0
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w, side := randomWorkingSet(rng, 20+rng.Intn(40))
		sa, sb := w.sideSizes(side)
		capacity := max(sa, sb) + []int{0, 100, w.Total}[seed%3]
		before := slices.Clone(side)
		cut0 := w.CutWeight(side)

		ok := Refine(w, side, capacity)
		if sa, sb := w.sideSizes(side); sa > capacity || sb > capacity {
			t.Fatalf("seed %d: sides %d/%d bytes above the capacity %d", seed, sa, sb, capacity)
		}
		cut1 := w.CutWeight(side)
		switch {
		case ok && cut1 >= cut0:
			t.Fatalf("seed %d: Refine reported a gain, cut %v -> %v", seed, cut0, cut1)
		case !ok && !slices.Equal(side, before):
			t.Fatalf("seed %d: Refine reported no gain and changed side", seed)
		}
		if ok {
			improved++
		}

		again := slices.Clone(before)
		if Refine(w, again, capacity) != ok || !slices.Equal(again, side) {
			t.Fatalf("seed %d: a second run from the same input differs", seed)
		}
		if fixed := slices.Clone(side); Refine(w, fixed, capacity) || !slices.Equal(fixed, side) {
			t.Fatalf("seed %d: refining a refined assignment found cut %v -> %v", seed, cut1, w.CutWeight(fixed))
		}
	}
	if improved < 30 {
		t.Fatalf("only %d of 60 random assignments were improved; the test exercises nothing", improved)
	}
}

// TestRefineMovesOnlyTheMisplaced builds two seeded clusters — dense
// inside, three links across — on the two sides they belong to, puts
// three nodes on the wrong side, and expects Refine to move exactly
// those three back; the assignment it then holds is a local optimum.
func TestRefineMovesOnlyTheMisplaced(t *testing.T) {
	const n = 24 // nodes 0..11 form one cluster, 12..23 the other
	rng := rand.New(rand.NewSource(11))
	g := graph.NewNetwork()
	for i := 0; i < n; i++ {
		g.AddNode(graph.Node{ID: graph.NodeID(i)})
	}
	for c := 0; c < 2; c++ {
		for a := c * n / 2; a < (c+1)*n/2; a++ {
			for b := a + 1; b < (c+1)*n/2; b++ {
				if rng.Intn(3) > 0 { // two thirds of the pairs
					g.AddEdge(graph.Edge{From: graph.NodeID(a), To: graph.NodeID(b), Weight: 1})
				}
			}
		}
	}
	for _, link := range [][2]graph.NodeID{{0, 12}, {5, 17}, {11, 23}} {
		g.AddEdge(graph.Edge{From: link[0], To: link[1], Weight: 1})
	}
	w := BuildWeighted(g, unitSize)
	home := make([]bool, n)
	for i := n / 2; i < n; i++ {
		home[i] = true
	}
	capacity := 10 * (n/2 + 3) // room for the three strays and no more

	side := slices.Clone(home)
	if Refine(w, side, capacity) {
		t.Fatalf("Refine moved nodes of two clean clusters: %v", side)
	}
	for _, stray := range []int{3, 7, 20} {
		side[stray] = !side[stray]
	}
	if !Refine(w, side, capacity) {
		t.Fatal("Refine left three misplaced nodes where they were")
	}
	if !slices.Equal(side, home) {
		t.Fatalf("Refine did not move exactly the misplaced nodes back:\n got %v\nwant %v", side, home)
	}
	if got := w.CutWeight(side); got != 3 {
		t.Fatalf("cut after refinement = %v, want the 3 links across", got)
	}
}

// TestPartCutMatchesTwoWayCut: on a two-part assignment the k-way cut
// is the two-way cut.
func TestPartCutMatchesTwoWayCut(t *testing.T) {
	w, side := randomWorkingSet(rand.New(rand.NewSource(5)), 40)
	part := make([]int, len(side))
	for i, b := range side {
		if b {
			part[i] = 1
		}
	}
	if got, want := w.PartCut(part), w.CutWeight(side); got != want {
		t.Fatalf("PartCut = %v, CutWeight = %v", got, want)
	}
}
