package partition

import (
	"math/rand"
	"slices"

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
//
// Choosing Multilevel for the Figure 2 recursion
// (ClusterNodesIntoPagesOpts) also changes the page plan, not only the
// heuristic: subsets split by page count rather than with the MinPgSize
// floor, and the finished pages go through MergePages. Its Bipartition alone keeps the floor.
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

// level is one step of the coarsening hierarchy: the graph it produced,
// the mapping from the previous (finer) graph's indexes onto it, and
// the side assignment on it. A worker's scratch keeps its levels, and
// their arrays, from one bipartition to the next.
type level struct {
	w        Weighted
	toCoarse []int32 // finer index -> coarse index
	side     []bool
}

// Bipartition implements Bipartitioner.
func (m *Multilevel) Bipartition(w *Weighted, minSize int, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID, error) {
	return bipartition(m, w, minSize, rng)
}

func (m *Multilevel) split(w *Weighted, b bounds, rng *rand.Rand, sc *scratch, side []bool) error {
	if err := checkFeasible(w); err != nil {
		return err
	}
	if w.N() <= minCoarsenable {
		// Too small for coarsening to pay for itself.
		return (&RatioCut{}).split(w, b, rng, sc, side)
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
	// graphs where everything wants the same partner). levels[:nl] is
	// the hierarchy, finest first.
	nl := 0
	cur := w
	for cur.N() > ct {
		if nl == len(sc.levels) {
			sc.levels = append(sc.levels, new(level))
		}
		lv := sc.levels[nl]
		coarsenHEM(cur, rng, sc, lv)
		if lv.w.N() > (cur.N()*97)/100 {
			break // stalled; refine from here
		}
		nl++
		cur = &lv.w
	}

	// Base partition on the coarsest graph.
	cs := side
	if nl > 0 {
		cs = sc.levels[nl-1].side
	}
	if err := (&RatioCut{Restarts: 2}).split(cur, b, rng, sc, cs); err != nil {
		return err
	}

	// Uncoarsening phase: project the side assignment through each
	// level's mapping and refine on the finer graph.
	for li := nl - 1; li >= 0; li-- {
		fine, fineSide := w, side
		if li > 0 {
			up := sc.levels[li-1]
			fine, fineSide = &up.w, up.side
		}
		lv := sc.levels[li]
		for i := range fineSide {
			fineSide[i] = lv.side[lv.toCoarse[i]]
		}
		for pass := 0; pass < refinePasses; pass++ {
			if !runMovePass(fine, fineSide, b.minA, b.minB, minRatio, true, sc) {
				break
			}
		}
	}
	settle(side)
	return nil
}

// coarsenHEM contracts a heavy-edge matching of w into lv: every node
// pairs with its heaviest still-unmatched neighbor (ties broken by
// lowest index; visit order is randomized so repeated calls explore
// different matchings), except when the merged super-node would exceed
// a quarter of the total — oversized super-nodes trap the base
// partitioner. Unmatched nodes carry over alone. The coarse graph has
// no IDs: Multilevel only ever works on its dense indexes. Sizes add up
// and parallel fine edges accumulate, so w.Total and total edge weight
// (minus contracted edges) are preserved. lv.side is sized for the
// coarse graph; its contents are left to the caller.
func coarsenHEM(w *Weighted, rng *rand.Rand, sc *scratch, lv *level) {
	n := w.N()
	match := resize(sc.match, n)
	for i := range match {
		match[i] = -1
	}
	// The visit order is rand.Perm's shuffle, drawn from rng the same
	// way, written into scratch.
	order := resize(sc.order, n)
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		order[i] = order[j]
		order[j] = int32(i)
	}
	sc.match, sc.order = match, order
	maxSuper := w.Total / 4
	for _, u := range order {
		if match[u] >= 0 {
			continue
		}
		best := int32(-1)
		bestW := -1.0
		for _, e := range w.Row(int(u)) {
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
			match[u] = best
			match[best] = u
		} else {
			match[u] = u // matched with itself
		}
	}

	// Assign coarse indexes in ascending fine order (deterministic given
	// the matching): each pair gets the index at its smaller member,
	// which is its first member m1; the other is m2 (-1 for a single).
	toCoarse := resize(lv.toCoarse, n)
	for i := range toCoarse {
		toCoarse[i] = -1
	}
	m1, m2 := resize(sc.m1, n), resize(sc.m2, n)
	nc := int32(0)
	for u := int32(0); u < int32(n); u++ {
		if toCoarse[u] >= 0 {
			continue
		}
		toCoarse[u] = nc
		m1[nc], m2[nc] = u, -1
		if v := match[u]; v != u {
			toCoarse[v] = nc
			m2[nc] = v
		}
		nc++
	}
	lv.toCoarse, sc.m1, sc.m2 = toCoarse, m1, m2

	coarse := &lv.w
	coarse.IDs = nil
	coarse.Size = resize(coarse.Size, int(nc))
	coarse.Off = resize(coarse.Off, int(nc)+1)
	coarse.Edges = resize(coarse.Edges, int(w.Off[n]))[:0] // contraction only drops entries
	coarse.Total = w.Total
	lv.side = resize(lv.side, int(nc))

	// Accumulate each coarse node's row with a scratch array instead of
	// a shared pair-keyed map: the fine adjacency is symmetric, so
	// visiting every member's full row builds both directions of each
	// coarse edge with the same accumulated weight.
	acc := resize(sc.acc, int(nc))
	seen := resize(sc.seen, int(nc))
	clear(acc)
	clear(seen)
	touched := sc.touched[:0]
	coarse.Off[0] = 0
	for c := int32(0); c < nc; c++ {
		coarse.Size[c] = w.Size[m1[c]]
		if m2[c] >= 0 {
			coarse.Size[c] += w.Size[m2[c]]
		}
		for _, fu := range [2]int32{m1[c], m2[c]} {
			if fu < 0 {
				continue
			}
			for _, e := range w.Row(int(fu)) {
				cv := toCoarse[e.To]
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
		slices.Sort(touched)
		for _, cv := range touched {
			coarse.Edges = append(coarse.Edges, WEdge{To: cv, W: acc[cv]})
			acc[cv] = 0
			seen[cv] = false
		}
		coarse.Off[c+1] = int32(len(coarse.Edges))
		touched = touched[:0]
	}
	sc.acc, sc.seen, sc.touched = acc, seen, touched
}
