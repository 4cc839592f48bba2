package partition

import (
	"math/rand"
	"slices"

	"ccam/internal/graph"
)

// FM is the Fiduccia–Mattheyses two-way min-cut heuristic: passes of
// single-node moves in best-gain order with each node moved at most
// once per pass, then reversion to the best prefix. Moves respect two
// size constraints: every side keeps at least minSize bytes and at
// least fmBalanceFrac of the total (FM without a balance constraint
// degenerates — moving everything to one side zeroes the cut).
type FM struct{}

const (
	// fmPasses bounds FM's improvement passes.
	fmPasses = 12
	// fmBalanceFrac is the minimum fraction of the total size each side
	// keeps: near-bisection.
	fmBalanceFrac = 0.45
)

// Name implements Bipartitioner.
func (f *FM) Name() string { return "fm" }

// Bipartition implements Bipartitioner.
func (f *FM) Bipartition(w *Weighted, minSize int, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID, error) {
	return bipartition(f, w, minSize, rng)
}

func (f *FM) split(w *Weighted, b bounds, rng *rand.Rand, sc *scratch, side []bool) error {
	if err := checkFeasible(w); err != nil {
		return err
	}
	limA, limB := fmLimit(w.Total, b.minA), fmLimit(w.Total, b.minB)
	w.seedPartition(rng, sc, side, b.targetA)
	for pass := 0; pass < fmPasses; pass++ {
		if !runMovePass(w, side, limA, limB, minCut, false, sc) {
			break
		}
	}
	settle(side) // a degenerate search peels one node off
	return nil
}

// fmLimit is the least a side of total bytes with the floor minSize
// keeps under FM: fmBalanceFrac of the total, or the floor if larger.
// A limit above half the total is infeasible; it relaxes to the floor.
func fmLimit(total, minSize int) int {
	lim := max(int(fmBalanceFrac*float64(total)), minSize)
	if 2*lim > total {
		lim = minSize
	}
	return lim
}

// objective is what a move pass minimizes.
type objective uint8

const (
	minCut   objective = iota // the cut weight
	minRatio                  // the Cheng–Wei ratio cut/(|A|·|B|), sizes in bytes
)

// score evaluates a partition state; lower is better. A switch rather
// than a function value, so that the move pass's per-move call inlines.
func (o objective) score(cut float64, sa, sb int) float64 {
	if o == minCut {
		return cut
	}
	return scoreRatio(cut, sa, sb)
}

// scoreRatio is the Cheng–Wei ratio-cut objective cut/(|A|·|B|), with
// sizes in bytes. Degenerate sides score +inf-ish.
func scoreRatio(cut float64, sa, sb int) float64 {
	if sa <= 0 || sb <= 0 {
		return 1e300
	}
	return cut / (float64(sa) * float64(sb))
}

// moveCand is a heap entry: a candidate single-node move.
type moveCand struct {
	node int
	gain float64
}

// moveHeap is a max-heap of candidates by gain. Its sift steps are
// container/heap's Init, Push, Pop, up and down, step for step, on the
// concrete slice: entries of equal gain pop in the same order, so the
// placement does not change, and no entry is boxed into an interface.
type moveHeap []moveCand

func (h moveHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, len(h))
	}
}

func (h *moveHeap) push(c moveCand) {
	*h = append(*h, c)
	s := *h
	for j := len(s) - 1; j > 0; {
		i := (j - 1) / 2
		if !(s[j].gain > s[i].gain) {
			break
		}
		s[i], s[j] = s[j], s[i]
		j = i
	}
}

func (h *moveHeap) pop() moveCand {
	s := *h
	n := len(s) - 1
	s[0], s[n] = s[n], s[0]
	s.down(0, n)
	*h = s[:n]
	return s[n]
}

// down sifts h[i] toward the leaves of the heap h[:n].
func (h moveHeap) down(i, n int) {
	for {
		j1 := 2*i + 1
		if j1 >= n {
			return
		}
		j := j1
		if j2 := j1 + 1; j2 < n && h[j2].gain > h[j1].gain {
			j = j2
		}
		if !(h[j].gain > h[i].gain) {
			return
		}
		h[i], h[j] = h[j], h[i]
		i = j
	}
}

// runMovePass executes one FM-style pass over side in place: nodes move
// at most once, in lazily-maintained best-gain order, subject to the
// minimum byte sizes minA of side A and minB of side B (a side already
// below its minimum only grows); afterwards the state reverts to the
// prefix minimizing obj. Reports whether the score strictly improved.
// Its arrays come from sc; one sweep over the edges gives the gains,
// the cut, both side sizes and the heap's seeds.
//
// A boundary pass is the uncoarsening refinement of Multilevel, where the
// projected partition is already good and almost every profitable move
// touches the cut: the heap is seeded only with nodes on the cut
// (interior nodes still enter when a neighbor's move drags them to it),
// and the pass gives up after max(n/8, 64) consecutive non-improving
// moves instead of churning through the whole graph.
func runMovePass(w *Weighted, side []bool, minA, minB int, obj objective, boundary bool, sc *scratch) bool {
	n := w.N()
	gains := resize(sc.gains, n)
	locked := resize(sc.locked, n)
	clear(locked)
	h := slices.Grow(sc.heap[:0], n)
	cut, sa, sb := w.sweep(side, gains, &h, boundary)
	h.init()
	// A pass makes at most n moves, so a stall budget of n never binds.
	stall := n
	if boundary {
		stall = max(n/8, 64)
	}

	bestScore := obj.score(cut, sa, sb)
	bestPrefix := 0
	moves := slices.Grow(sc.moves[:0], n) // a node moves at most once

	for len(h) > 0 && len(moves)-bestPrefix <= stall {
		c := h.pop()
		u := c.node
		if locked[u] || c.gain != gains[u] {
			continue // stale entry
		}
		// Feasibility: the source side must not drop below its minimum.
		if side[u] {
			if sb-w.Size[u] < minB {
				continue
			}
		} else {
			if sa-w.Size[u] < minA {
				continue
			}
		}
		// Apply the move.
		locked[u] = true
		if side[u] {
			sb -= w.Size[u]
			sa += w.Size[u]
		} else {
			sa -= w.Size[u]
			sb += w.Size[u]
		}
		side[u] = !side[u]
		cut -= gains[u]
		gains[u] = -gains[u]
		for _, e := range w.Row(u) {
			v := e.To
			if side[v] == side[u] {
				gains[v] -= 2 * e.W
			} else {
				gains[v] += 2 * e.W
			}
			if !locked[v] {
				h.push(moveCand{node: int(v), gain: gains[v]})
			}
		}
		moves = append(moves, int32(u))
		if s := obj.score(cut, sa, sb); s < bestScore-1e-12 {
			bestScore = s
			bestPrefix = len(moves)
		}
	}
	// Revert moves beyond the best prefix.
	for i := len(moves) - 1; i >= bestPrefix; i-- {
		u := moves[i]
		side[u] = !side[u]
	}
	sc.gains, sc.locked, sc.heap, sc.moves = gains, locked, h, moves
	return bestPrefix > 0
}
