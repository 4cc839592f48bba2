package partition

import (
	"math/rand"

	"ccam/internal/graph"
)

// RatioCut adapts Cheng and Wei's two-way ratio-cut heuristic, the
// partitioner the paper bases CCAM on. The objective is
// cut(A,B)/(size(A)·size(B)) rather than the raw cut, which lets the
// heuristic discover natural cluster boundaries instead of forcing a
// bisection; only the MinPgSize floor from the paper's Figure 2
// constrains side sizes. The search runs FM-style single-node move
// passes with best-prefix reversion, scored by the ratio objective.
type RatioCut struct {
	// Restarts runs the whole search from multiple BFS seeds and keeps
	// the best result (default 3).
	Restarts int
}

// ratioCutPasses bounds the improvement passes of each restart.
const ratioCutPasses = 16

// Name implements Bipartitioner.
func (r *RatioCut) Name() string { return "ratio-cut" }

func (r *RatioCut) restarts() int {
	if r.Restarts > 0 {
		return r.Restarts
	}
	return 3
}

// Bipartition implements Bipartitioner.
func (r *RatioCut) Bipartition(w *Weighted, minSize int, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID, error) {
	return bipartition(r, w, minSize, rng)
}

func (r *RatioCut) split(w *Weighted, b bounds, rng *rand.Rand, sc *scratch, side []bool) error {
	if err := checkFeasible(w); err != nil {
		return err
	}
	// side holds the best restart so far; a restart scoring no better
	// than a degenerate split never lands there.
	work := resize(sc.work, w.N())
	sc.work = work
	found := false
	bestScore := 1e300
	for attempt := 0; attempt < r.restarts(); attempt++ {
		w.seedPartition(rng, sc, work, b.targetA)
		for pass := 0; pass < ratioCutPasses; pass++ {
			if !runMovePass(w, work, b.minA, b.minB, minRatio, false, sc) {
				break
			}
		}
		sc.gains = resize(sc.gains, w.N())
		cut, sa, sb := w.sweep(work, sc.gains, nil, false)
		if s := scoreRatio(cut, sa, sb); s < bestScore {
			bestScore = s
			copy(side, work)
			found = true
		}
	}
	if !found {
		clear(side) // every restart degenerate: settle peels node 0 off
	}
	settle(side)
	return nil
}
