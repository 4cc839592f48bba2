// Package partition implements the graph-partitioning heuristics CCAM
// clusters with: Kernighan–Lin two-way swaps, Fiduccia–Mattheyses
// single-node moves with best-prefix reversion, and the Cheng–Wei
// two-way ratio-cut adaptation the paper uses, plus the
// size-constrained top-down ClusterNodesIntoPages procedure of the
// paper's Figure 2 and a greedy M-way refinement pass (the paper's
// optional extension).
package partition

import (
	"errors"
	"fmt"
	"math/rand"
	"slices"

	"ccam/internal/graph"
)

// Errors returned by partitioning.
var (
	ErrEmptyGraph   = errors.New("partition: empty graph")
	ErrNodeTooLarge = errors.New("partition: node record larger than page capacity")
	ErrInfeasible   = errors.New("partition: size constraints infeasible")
)

// Weighted is the internal working representation: nodes are dense
// indexes with byte sizes; edges are undirected with accumulated
// weights (a directed pair u→v, v→u collapses into one undirected edge
// whose weight is the sum, since an unsplit edge in either direction
// contributes to CRR/WCRR).
type Weighted struct {
	IDs   []graph.NodeID // dense index -> node id
	Size  []int          // record size per node
	Adj   [][]WEdge      // undirected adjacency
	Total int            // sum of sizes
}

// WEdge is one endpoint's view of an undirected weighted edge.
type WEdge struct {
	To int
	W  float64
}

// BuildWeighted projects a network onto the working representation.
// sizeOf returns the record byte size of each node; uniform weights use
// the network's edge weights as-is (weight 0 edges still connect nodes
// but contribute no gain). sizeOf is called once per node, in ascending
// id order.
func BuildWeighted(g *graph.Network, sizeOf func(graph.NodeID) int) *Weighted {
	ids := g.NodeIDs()
	n := len(ids)
	index := make(map[graph.NodeID]int32, n)
	for i, id := range ids {
		index[id] = int32(i)
	}
	w := &Weighted{
		IDs:  ids,
		Size: make([]int, n),
		Adj:  make([][]WEdge, n),
	}
	for i, id := range ids {
		w.Size[i] = sizeOf(id)
		w.Total += w.Size[i]
	}
	// Each node's row sums the weights of its outgoing and incoming edges
	// per neighbor in a scratch array, as coarsenHEM does, so a pair
	// linked both ways gets one entry weighing both. Every directed edge
	// is one entry at each end at most, so the rows are carved from one
	// array that never grows.
	acc := make([]float64, n)
	seen := make([]bool, n)
	var touched []int
	edges := make([]WEdge, 0, 2*g.NumEdges())
	for u, id := range ids {
		g.VisitIncident(id, func(other graph.NodeID, weight float64) {
			v := int(index[other])
			if !seen[v] {
				seen[v] = true
				touched = append(touched, v)
			}
			acc[v] += weight
		})
		slices.Sort(touched)
		from := len(edges)
		for _, v := range touched {
			edges = append(edges, WEdge{To: v, W: acc[v]})
			acc[v], seen[v] = 0, false
		}
		w.Adj[u] = edges[from:len(edges):len(edges)]
		touched = touched[:0]
	}
	return w
}

// N returns the number of nodes.
func (w *Weighted) N() int { return len(w.IDs) }

// CutWeight returns the total weight of edges crossing the partition
// expressed as side[i] booleans (false = A, true = B).
func (w *Weighted) CutWeight(side []bool) float64 { return cutWeight(w, side) }

// PartCut returns the total weight of the edges whose ends lie in
// different parts of a k-way assignment (part[i] is node i's part).
func (w *Weighted) PartCut(part []int) float64 { return cutWeight(w, part) }

func cutWeight[T comparable](w *Weighted, part []T) float64 {
	var cut float64
	for u := range w.Adj {
		for _, e := range w.Adj[u] {
			if e.To > u && part[u] != part[e.To] {
				cut += e.W
			}
		}
	}
	return cut
}

// sideSizes returns the total byte size of each side.
func (w *Weighted) sideSizes(side []bool) (sa, sb int) {
	for i, s := range side {
		if s {
			sb += w.Size[i]
		} else {
			sa += w.Size[i]
		}
	}
	return sa, sb
}

// seedPartition grows side A from a random start by BFS until it holds
// roughly half the total size; the rest is side B. A connected seed
// matters on road networks: random assignment starts with a terrible
// cut the local search cannot always escape.
func (w *Weighted) seedPartition(rng *rand.Rand) []bool {
	n := w.N()
	side := make([]bool, n)
	for i := range side {
		side[i] = true // everything starts in B
	}
	start := rng.Intn(n)
	target := w.Total / 2
	size := 0
	queue := []int{start}
	side[start] = false
	size += w.Size[start]
	for len(queue) > 0 && size < target {
		cur := queue[0]
		queue = queue[1:]
		for _, e := range w.Adj[cur] {
			if side[e.To] && size < target {
				side[e.To] = false
				size += w.Size[e.To]
				queue = append(queue, e.To)
			}
		}
	}
	// Disconnected leftovers: top up A with arbitrary B nodes if A is
	// still far short (keeps constraints feasible).
	if size < target/2 {
		for i := 0; i < n && size < target; i++ {
			if side[i] {
				side[i] = false
				size += w.Size[i]
			}
		}
	}
	return side
}

// gains computes, for every node, the cut-weight reduction of moving it
// to the other side (external minus internal incident weight).
func (w *Weighted) gains(side []bool) []float64 {
	g := make([]float64, w.N())
	for u := range w.Adj {
		for _, e := range w.Adj[u] {
			if side[u] != side[e.To] {
				g[u] += e.W
			} else {
				g[u] -= e.W
			}
		}
	}
	return g
}

// onCut reports whether node u has a neighbor on the other side.
func (w *Weighted) onCut(side []bool, u int) bool {
	for _, e := range w.Adj[u] {
		if side[e.To] != side[u] {
			return true
		}
	}
	return false
}

// split materializes the two sides as node-id slices.
func (w *Weighted) split(side []bool) (a, b []graph.NodeID) {
	for i, s := range side {
		if s {
			b = append(b, w.IDs[i])
		} else {
			a = append(a, w.IDs[i])
		}
	}
	return a, b
}

// indexOf returns the dense index of id. IDs are ascending (BuildWeighted
// sorts them and splitByIDs preserves the order), so a binary search
// suffices; -1 when absent.
func (w *Weighted) indexOf(id graph.NodeID) int {
	if i, ok := slices.BinarySearch(w.IDs, id); ok {
		return i
	}
	return -1
}

// splitByIDs materializes the two induced sub-Weighteds of a
// bipartition, remapping dense indexes and filtering adjacency in one
// pass over the parent — no map-based graph.Subnetwork, no repeated
// BuildWeighted, no sizeOf re-scan (Total is carried from the parent's
// sizes). Every node of w must appear in exactly one of a, b; sides may
// be in any order. Ascending-ID order of the parent is preserved in
// both children, so adjacency lists stay sorted and indexOf keeps
// working down the recursion.
func (w *Weighted) splitByIDs(a, b []graph.NodeID) (wa, wb *Weighted, err error) {
	n := w.N()
	if len(a)+len(b) != n {
		return nil, nil, fmt.Errorf("partition: bipartition covers %d of %d nodes", len(a)+len(b), n)
	}
	inB := make([]bool, n)
	for _, id := range b {
		i := w.indexOf(id)
		if i < 0 {
			return nil, nil, fmt.Errorf("partition: bipartition returned foreign node %d", id)
		}
		inB[i] = true
	}
	wa = &Weighted{
		IDs:  make([]graph.NodeID, 0, len(a)),
		Size: make([]int, 0, len(a)),
		Adj:  make([][]WEdge, len(a)),
	}
	wb = &Weighted{
		IDs:  make([]graph.NodeID, 0, len(b)),
		Size: make([]int, 0, len(b)),
		Adj:  make([][]WEdge, len(b)),
	}
	// remap[i] is node i's dense index within its side; assigning in
	// ascending parent order keeps both children's IDs ascending. ents
	// counts each side's adjacency entries (its edges, both halves).
	remap := make([]int32, n)
	var entA, entB int
	for i := 0; i < n; i++ {
		side, ents := wa, &entA
		if inB[i] {
			side, ents = wb, &entB
		}
		remap[i] = int32(len(side.IDs))
		side.IDs = append(side.IDs, w.IDs[i])
		side.Size = append(side.Size, w.Size[i])
		side.Total += w.Size[i]
		for _, e := range w.Adj[i] {
			if inB[e.To] == inB[i] {
				*ents++
			}
		}
	}
	if len(wa.IDs) != len(a) {
		return nil, nil, fmt.Errorf("partition: bipartition sides overlap (%d + %d nodes over %d)", len(a), len(b), n)
	}
	// Each child list is the node's own parent list minus its cut edges,
	// carved from one array per side sized by the count above, so no
	// append ever reallocates. Parent lists are sorted by To and remap is
	// monotone within a side, so every child list comes out sorted.
	edgesA, edgesB := make([]WEdge, 0, entA), make([]WEdge, 0, entB)
	for u := 0; u < n; u++ {
		side, edges := wa, &edgesA
		if inB[u] {
			side, edges = wb, &edgesB
		}
		from := len(*edges)
		for _, e := range w.Adj[u] {
			if inB[e.To] == inB[u] {
				*edges = append(*edges, WEdge{To: int(remap[e.To]), W: e.W})
			}
		}
		side.Adj[remap[u]] = (*edges)[from:len(*edges):len(*edges)]
	}
	return wa, wb, nil
}

// Bipartitioner cuts a weighted graph into two sides, each of total
// size at least minSize bytes whenever feasible. Implementations strive
// to minimize the cut weight (maximize CRR/WCRR of the eventual
// placement).
type Bipartitioner interface {
	// Name identifies the heuristic in reports.
	Name() string
	// Bipartition splits w. Both returned sides are non-empty, and each
	// side's byte size is >= minSize when w.Total >= 2*minSize.
	Bipartition(w *Weighted, minSize int, rng *rand.Rand) (a, b []graph.NodeID, err error)
}

// checkFeasible validates common preconditions.
func checkFeasible(w *Weighted, minSize int) error {
	if w.N() == 0 {
		return ErrEmptyGraph
	}
	if w.N() == 1 {
		return fmt.Errorf("%w: single node cannot be bipartitioned", ErrInfeasible)
	}
	return nil
}
