package partition

import (
	"math/rand"

	"ccam/internal/graph"
)

// KL is the classic Kernighan–Lin two-way heuristic: passes of
// tentative best-gain *pair swaps* (one node from each side), each node
// swapped at most once per pass, then reversion to the best prefix.
// Because swaps exchange nodes, KL preserves the seed partition's size
// balance up to per-node size differences; it serves as the ablation
// baseline the paper cites ([15]).
type KL struct{}

// klPasses bounds KL's improvement passes.
const klPasses = 8

// Name implements Bipartitioner.
func (k *KL) Name() string { return "kernighan-lin" }

// Bipartition implements Bipartitioner.
func (k *KL) Bipartition(w *Weighted, minSize int, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID, error) {
	return bipartition(k, w, minSize, rng)
}

func (k *KL) split(w *Weighted, b bounds, rng *rand.Rand, sc *scratch, side []bool) error {
	if err := checkFeasible(w); err != nil {
		return err
	}
	w.seedPartition(rng, sc, side, b.targetA)
	for pass := 0; pass < klPasses; pass++ {
		if !k.pass(w, side, b.minA, b.minB) {
			break
		}
	}
	settle(side)
	return nil
}

// edgeWeight returns w(u,v) or 0.
func edgeWeight(w *Weighted, u, v int) float64 {
	for _, e := range w.Row(u) {
		if int(e.To) == v {
			return e.W
		}
	}
	return 0
}

func (k *KL) pass(w *Weighted, side []bool, minA, minB int) bool {
	n := w.N()
	gains := make([]float64, n)
	_, sa, sb := w.sweep(side, gains, nil, false)
	locked := make([]bool, n)

	type swap struct{ u, v int }
	var swaps []swap
	cum, best := 0.0, 0.0
	bestPrefix := 0

	for {
		// Select the best feasible (a in A, b in B) pair by combined
		// gain g(a)+g(b)-2w(a,b).
		bu, bv := -1, -1
		bg := 0.0
		for u := 0; u < n; u++ {
			if locked[u] || side[u] {
				continue
			}
			for v := 0; v < n; v++ {
				if locked[v] || !side[v] {
					continue
				}
				g := gains[u] + gains[v] - 2*edgeWeight(w, u, v)
				newSA := sa - w.Size[u] + w.Size[v]
				newSB := sb - w.Size[v] + w.Size[u]
				if newSA < minA || newSB < minB {
					continue
				}
				if bu == -1 || g > bg {
					bu, bv, bg = u, v, g
				}
			}
		}
		if bu == -1 {
			break
		}
		// Tentatively apply the swap.
		locked[bu], locked[bv] = true, true
		sa = sa - w.Size[bu] + w.Size[bv]
		sb = sb - w.Size[bv] + w.Size[bu]
		applyMove(w, side, gains, bu)
		applyMove(w, side, gains, bv)
		cum += bg
		swaps = append(swaps, swap{bu, bv})
		if cum > best+1e-12 {
			best = cum
			bestPrefix = len(swaps)
		}
	}
	for i := len(swaps) - 1; i >= bestPrefix; i-- {
		side[swaps[i].u] = !side[swaps[i].u]
		side[swaps[i].v] = !side[swaps[i].v]
	}
	return bestPrefix > 0
}

// applyMove flips node u and updates the gain vector.
func applyMove(w *Weighted, side []bool, gains []float64, u int) {
	side[u] = !side[u]
	gains[u] = -gains[u]
	for _, e := range w.Row(u) {
		if side[e.To] == side[u] {
			gains[e.To] -= 2 * e.W
		} else {
			gains[e.To] += 2 * e.W
		}
	}
}
