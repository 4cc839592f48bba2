package partition

import "math/rand"

// scratch is one worker's working memory for the Figure 2 recursion:
// every array a bipartition, its coarsening hierarchy, its move passes
// and the split into child working sets needs, grown on demand and
// reused from subset to subset. A scratch lives for one
// ClusterWeightedIntoPages call and is used by one goroutine at a time;
// nothing returned to a caller points into it.
type scratch struct {
	rng *rand.Rand // re-seeded for each subset

	side  []bool  // the subset's split
	work  []bool  // ratio cut's restart in progress
	remap []int32 // parent index -> index within its side
	queue []int32 // seedPartition's BFS queue
	free  []*Weighted

	// runMovePass
	gains  []float64
	locked []bool
	heap   moveHeap
	moves  []int32

	// coarsenHEM and Multilevel's hierarchy
	match, order, m1, m2, touched []int32
	acc                           []float64
	seen                          []bool
	levels                        []*level
}

// child returns a working set no longer in use, or a new one.
func (sc *scratch) child() *Weighted {
	if k := len(sc.free); k > 0 {
		w := sc.free[k-1]
		sc.free = sc.free[:k-1]
		return w
	}
	return new(Weighted)
}
