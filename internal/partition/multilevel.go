package partition

import (
	"math/rand"
	"sort"

	"ccam/internal/graph"
)

// Multilevel is a METIS-style multilevel bipartitioner: heavy-edge
// matching contracts the graph level by level until it is small, the
// base heuristic partitions the coarsest graph, and the partition is
// projected back up with an FM-style ratio-cut refinement pass per
// level. On road networks this finds cuts comparable to running
// ratio-cut on the full graph at a fraction of the cost: the expensive
// multi-restart search only ever sees a few dozen super-nodes, and
// refinement on each finer level starts from an already-good cut, so
// it converges in very few moves.
//
// Graphs too small to coarsen get the full multi-restart ratio cut
// (nothing refines them afterwards), while the coarsest graph inside
// the multilevel flow gets a two-restart one: boundary refinement
// cleans up each level, so further restarts there buy almost nothing.
type Multilevel struct{}

// Name implements Bipartitioner.
func (m *Multilevel) Name() string { return "multilevel" }

const (
	// minCoarsenable is the graph size below which Bipartition hands
	// the whole problem to ratio cut: a matching on so few nodes barely
	// contracts anything, and the base search is cheap there anyway.
	minCoarsenable = 32
	// coarsenTo stops coarsening once the graph has at most this many
	// super-nodes.
	coarsenTo = 64
	// refinePasses bounds the FM refinement passes per uncoarsening
	// level.
	refinePasses = 2
)

// level is one step of the coarsening hierarchy: the graph it produced
// and the mapping from the previous (finer) graph's indexes onto it.
type level struct {
	w        *Weighted
	toCoarse []int32 // finer index -> coarse index
}

// Bipartition implements Bipartitioner.
func (m *Multilevel) Bipartition(w *Weighted, minSize int, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID, error) {
	if err := checkFeasible(w, minSize); err != nil {
		return nil, nil, err
	}
	if w.N() <= minCoarsenable {
		// Too small for coarsening to pay for itself.
		return (&RatioCut{}).Bipartition(w, minSize, rng)
	}
	// On graphs smaller than twice coarsenTo, still coarsen
	// — just to a proportionally smaller graph. The Fig. 2 recursion
	// spends most of its splits on sub-page-sized fragments, and running
	// the multi-restart base heuristic on each of them would dominate
	// the whole build.
	ct := coarsenTo
	if w.N() <= 2*ct {
		ct = w.N() / 4
		if ct < minCoarsenable/2 {
			ct = minCoarsenable / 2
		}
	}

	// Coarsening phase: contract heavy-edge matchings until the graph is
	// small enough or contraction stalls (matching fails on star-like
	// graphs where everything wants the same partner).
	var levels []level
	cur := w
	for cur.N() > ct {
		coarse, fineToCoarse := coarsenHEM(cur, rng)
		if coarse.N() > (cur.N()*97)/100 {
			break // stalled; refine from here
		}
		levels = append(levels, level{w: coarse, toCoarse: fineToCoarse})
		cur = coarse
	}

	lim := minSize
	if 2*lim > w.Total {
		lim = 0
	}

	// Base partition on the coarsest graph. Coarse IDs are the dense
	// indexes themselves, so the returned id lists map straight back.
	coarsest := w
	if len(levels) > 0 {
		coarsest = levels[len(levels)-1].w
	}
	a, _, err := (&RatioCut{Restarts: 2}).Bipartition(coarsest, lim, rng)
	if err != nil {
		return nil, nil, err
	}
	side := make([]bool, coarsest.N())
	for i := range side {
		side[i] = true
	}
	for _, id := range a {
		side[int(id)] = false
	}

	// Uncoarsening phase: project the side assignment through each
	// level's mapping and refine on the finer graph.
	for li := len(levels) - 1; li >= 0; li-- {
		var fine *Weighted
		if li == 0 {
			fine = w
		} else {
			fine = levels[li-1].w
		}
		fineSide := make([]bool, fine.N())
		for i := range fineSide {
			fineSide[i] = side[levels[li].toCoarse[i]]
		}
		side = fineSide
		for pass := 0; pass < refinePasses; pass++ {
			if !runMovePass(fine, side, lim, scoreRatio, true) {
				break
			}
		}
	}

	fa, fb := w.split(side)
	if len(fa) == 0 || len(fb) == 0 {
		return peelFallback(w)
	}
	return fa, fb, nil
}

// coarsenHEM contracts a heavy-edge matching of w: every node pairs
// with its heaviest still-unmatched neighbor (ties broken by lowest
// index; visit order is randomized so repeated calls explore different
// matchings), except when the merged super-node would exceed a quarter
// of the total — oversized super-nodes trap the base partitioner.
// Unmatched nodes carry over alone. The coarse graph's IDs are its own
// dense indexes (0..nc-1): Multilevel never surfaces them, it only
// needs split()'s id lists to index back into `side`. Sizes add up and
// parallel fine edges accumulate, so w.Total and total edge weight
// (minus contracted edges) are preserved.
func coarsenHEM(w *Weighted, rng *rand.Rand) (*Weighted, []int32) {
	n := w.N()
	match := make([]int32, n)
	for i := range match {
		match[i] = -1
	}
	order := rng.Perm(n)
	maxSuper := w.Total / 4
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		best := -1
		bestW := -1.0
		for _, e := range w.Adj[u] {
			if match[e.To] >= 0 || e.To == u {
				continue
			}
			if maxSuper > 0 && w.Size[u]+w.Size[e.To] > maxSuper {
				continue
			}
			if e.W > bestW || (e.W == bestW && (best < 0 || e.To < best)) {
				best = e.To
				bestW = e.W
			}
		}
		if best >= 0 {
			match[u] = int32(best)
			match[best] = int32(u)
		} else {
			match[u] = int32(u) // matched with itself
		}
	}

	// Assign coarse indexes in ascending fine order (deterministic given
	// the matching): each pair gets the index at its smaller member.
	fineToCoarse := make([]int32, n)
	for i := range fineToCoarse {
		fineToCoarse[i] = -1
	}
	nc := 0
	for u := 0; u < n; u++ {
		if fineToCoarse[u] >= 0 {
			continue
		}
		fineToCoarse[u] = int32(nc)
		if v := int(match[u]); v != u && match[u] >= 0 {
			fineToCoarse[v] = int32(nc)
		}
		nc++
	}

	coarse := &Weighted{
		IDs:  make([]graph.NodeID, nc),
		Size: make([]int, nc),
		Adj:  make([][]WEdge, nc),
	}
	for i := 0; i < nc; i++ {
		coarse.IDs[i] = graph.NodeID(i)
	}
	for u := 0; u < n; u++ {
		coarse.Size[fineToCoarse[u]] += w.Size[u]
	}
	coarse.Total = w.Total

	// Accumulate each coarse node's adjacency row with a scratch array
	// instead of a shared pair-keyed map: the fine adjacency is
	// symmetric, so visiting every member's full edge list builds both
	// directions of each coarse edge with the same accumulated weight.
	m1 := make([]int32, nc)
	m2 := make([]int32, nc)
	for i := range m1 {
		m1[i], m2[i] = -1, -1
	}
	for u := 0; u < n; u++ {
		c := fineToCoarse[u]
		if m1[c] < 0 {
			m1[c] = int32(u)
		} else {
			m2[c] = int32(u)
		}
	}
	acc := make([]float64, nc)
	seen := make([]bool, nc)
	var touched []int
	for c := 0; c < nc; c++ {
		for _, fu := range [2]int32{m1[c], m2[c]} {
			if fu < 0 {
				continue
			}
			for _, e := range w.Adj[fu] {
				cv := int(fineToCoarse[e.To])
				if cv == c {
					continue // contracted away
				}
				if !seen[cv] {
					seen[cv] = true
					touched = append(touched, cv)
				}
				acc[cv] += e.W
			}
		}
		if len(touched) == 0 {
			continue
		}
		sort.Ints(touched)
		es := make([]WEdge, len(touched))
		for i, cv := range touched {
			es[i] = WEdge{To: cv, W: acc[cv]}
			acc[cv] = 0
			seen[cv] = false
		}
		coarse.Adj[c] = es
		touched = touched[:0]
	}
	return coarse, fineToCoarse
}
