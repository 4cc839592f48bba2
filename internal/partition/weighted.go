// Package partition implements the graph-partitioning heuristics CCAM
// clusters with: Kernighan–Lin two-way swaps, Fiduccia–Mattheyses
// single-node moves with best-prefix reversion, and the Cheng–Wei
// two-way ratio-cut adaptation the paper uses, plus the
// size-constrained top-down ClusterNodesIntoPagesOpts procedure of the
// paper's Figure 2, one page merge (MergePages) and a greedy M-way
// refinement pass (MWayRefine, the paper's optional extension), all on
// the one working set NewWeighted builds.
package partition

import (
	"cmp"
	"errors"
	"fmt"
	"math/rand"
	"runtime"
	"slices"
	"sync"

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
// contributes to CRR/WCRR). The adjacency is compressed sparse rows:
// node u's edges are Edges[Off[u]:Off[u+1]], sorted by To. No field
// holds a pointer per node or per edge, so the collector never scans
// the rows.
type Weighted struct {
	IDs   []graph.NodeID // dense index -> node id; nil on Multilevel's coarse levels
	Size  []int          // record size per node
	Off   []int32        // row offsets, N()+1 of them, Off[0] == 0
	Edges []WEdge        // every row, end to end
	Total int            // sum of sizes
}

// WEdge is one endpoint's view of an undirected weighted edge.
type WEdge struct {
	To int32
	W  float64
}

// NewWeighted builds the working set of len(ids) nodes, dense index i
// being node ids[i] of sizes[i] bytes; it takes both slices over.
// visit(u, add) reports every edge at node u by calling add with the
// dense index of the other end and the edge's weight. Row u is what
// visit reports at u, sorted by To: a neighbor reported twice, as a
// pair linked both ways is, gets one entry whose weight sums the
// reports in the order made, and a report of u itself is dropped. So
// visit must report each edge at both ends for the rows to agree. The
// rows are built on up to GOMAXPROCS workers, each over a contiguous
// range of at least 4,096 nodes (a smaller set stays on the calling
// goroutine); each worker makes one add, and the result does not depend
// on their number.
func NewWeighted(ids []graph.NodeID, sizes []int, visit func(u int, add func(v int32, weight float64))) *Weighted {
	n := len(ids)
	w := &Weighted{IDs: ids, Size: sizes, Off: make([]int32, n+1)}
	for _, s := range sizes {
		w.Total += s
	}
	workers := max(1, min(runtime.GOMAXPROCS(0), n/4096))
	if workers == 1 {
		w.Edges = w.rows(0, n, visit)
	} else {
		// Each worker lays its range's rows end to end in its own array;
		// the arrays are then copied into place behind one another.
		parts := make([][]WEdge, workers)
		var wg sync.WaitGroup
		for k := range parts {
			wg.Add(1)
			go func() {
				defer wg.Done()
				parts[k] = w.rows(k*n/workers, (k+1)*n/workers, visit)
			}()
		}
		wg.Wait()
		w.Edges = slices.Concat(parts...)
	}
	for u := 0; u < n; u++ {
		w.Off[u+1] += w.Off[u]
	}
	return w
}

// rows builds the rows of nodes lo..hi-1 end to end, with room for four
// neighbors a node (a road map has about three), and sets Off[u+1] to
// row u's length.
func (w *Weighted) rows(lo, hi int, visit func(int, func(int32, float64))) []WEdge {
	r := &rowBuilder{edges: make([]WEdge, 0, 4*(hi-lo))}
	add := r.add // one method value, not one a node: visit keeps it
	for r.u = lo; r.u < hi; r.u++ {
		start := len(r.edges)
		visit(r.u, add)
		row := r.edges[start:]
		slices.SortStableFunc(row, func(a, b WEdge) int { return cmp.Compare(a.To, b.To) })
		end := start
		for _, e := range row {
			if end > start && r.edges[end-1].To == e.To {
				r.edges[end-1].W += e.W
			} else {
				r.edges[end] = e
				end++
			}
		}
		r.edges = r.edges[:end]
		w.Off[r.u+1] = int32(end - start) // the row's length for now
	}
	return r.edges
}

// rowBuilder collects the reports of the row of node u.
type rowBuilder struct {
	edges []WEdge
	u     int
}

func (r *rowBuilder) add(v int32, weight float64) {
	if int(v) != r.u {
		r.edges = append(r.edges, WEdge{To: v, W: weight})
	}
}

// BuildWeighted projects a network onto the working representation.
// sizeOf returns the record byte size of each node; uniform weights use
// the network's edge weights as-is (weight 0 edges still connect nodes
// but contribute no gain). sizeOf is called once per node, in ascending
// id order. Each node's row sums the weights of its outgoing and
// incoming edges per neighbor (see NewWeighted).
func BuildWeighted(g *graph.Network, sizeOf func(graph.NodeID) int) *Weighted {
	ids := g.NodeIDs()
	index := make(map[graph.NodeID]int32, len(ids))
	sizes := make([]int, len(ids))
	for i, id := range ids {
		index[id] = int32(i)
	}
	for i, id := range ids {
		sizes[i] = sizeOf(id)
	}
	return NewWeighted(ids, sizes, func(u int, add func(int32, float64)) {
		g.VisitIncident(ids[u], func(other graph.NodeID, weight float64) {
			add(index[other], weight)
		})
	})
}

// N returns the number of nodes.
func (w *Weighted) N() int { return len(w.Size) }

// Row returns node u's edges.
func (w *Weighted) Row(u int) []WEdge { return w.Edges[w.Off[u]:w.Off[u+1]] }

// CutWeight returns the total weight of edges crossing the partition
// expressed as side[i] booleans (false = A, true = B).
func (w *Weighted) CutWeight(side []bool) float64 { return cutWeight(w, side) }

// PartCut returns the total weight of the edges whose ends lie in
// different parts of a k-way assignment (part[i] is node i's part).
func (w *Weighted) PartCut(part []int) float64 { return cutWeight(w, part) }

func cutWeight[T comparable](w *Weighted, part []T) float64 {
	var cut float64
	for u := 0; u < w.N(); u++ {
		for _, e := range w.Row(u) {
			if int(e.To) > u && part[u] != part[e.To] {
				cut += e.W
			}
		}
	}
	return cut
}

// sweep is one pass over the edges of w under side. It sets every
// node's gain, the cut-weight reduction of moving it to the other side
// (external minus internal incident weight), and returns the cut
// weight and both sides' byte sizes. The additions run u ascending,
// each row in order, and count each cut edge at its e.To > u end — the
// order CutWeight adds in, so both give the same float. When seeds is
// non-nil every node is appended to it as a move candidate, or, with
// boundary set, only the nodes with a neighbor on the other side.
func (w *Weighted) sweep(side []bool, gains []float64, seeds *moveHeap, boundary bool) (cut float64, sa, sb int) {
	for u := 0; u < w.N(); u++ {
		su := side[u]
		if su {
			sb += w.Size[u]
		} else {
			sa += w.Size[u]
		}
		var g float64
		onCut := false
		for _, e := range w.Row(u) {
			if side[e.To] != su {
				g += e.W
				onCut = true
				if int(e.To) > u {
					cut += e.W
				}
			} else {
				g -= e.W
			}
		}
		gains[u] = g
		if seeds != nil && (!boundary || onCut) {
			*seeds = append(*seeds, moveCand{node: u, gain: g})
		}
	}
	return cut, sa, sb
}

// seedPartition writes into side a start for the local search: side A
// grows from a random node by BFS until it holds target bytes, half the
// total for a bisection; the rest is side B. A connected seed matters
// on road networks: random assignment starts with a terrible cut the
// local search cannot always escape.
func (w *Weighted) seedPartition(rng *rand.Rand, sc *scratch, side []bool, target int) {
	n := w.N()
	for i := range side {
		side[i] = true // everything starts in B
	}
	start := int32(rng.Intn(n))
	size := 0
	queue := append(slices.Grow(sc.queue[:0], n), start) // a node joins at most once
	side[start] = false
	size += w.Size[start]
	for head := 0; head < len(queue) && size < target; head++ {
		for _, e := range w.Row(int(queue[head])) {
			if side[e.To] && size < target {
				side[e.To] = false
				size += w.Size[e.To]
				queue = append(queue, e.To)
			}
		}
	}
	sc.queue = queue
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
}

// settle turns a degenerate assignment, one side empty, into the
// trivial split: node 0 alone on side A, the rest on side B.
func settle(side []bool) {
	if slices.Contains(side, false) && slices.Contains(side, true) {
		return
	}
	for i := range side {
		side[i] = i > 0
	}
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
// sorts them and splitting preserves the order), so a binary search
// suffices; -1 when absent.
func (w *Weighted) indexOf(id graph.NodeID) int {
	if i, ok := slices.BinarySearch(w.IDs, id); ok {
		return i
	}
	return -1
}

// sideOf writes into side the bipartition a, b of w that a Bipartitioner
// returned as id lists (false = a, true = b), checking that the lists
// cover every node of w exactly once.
func (w *Weighted) sideOf(a, b []graph.NodeID, side []bool) error {
	n := w.N()
	if len(a)+len(b) != n {
		return fmt.Errorf("partition: bipartition covers %d of %d nodes", len(a)+len(b), n)
	}
	clear(side)
	inB := 0
	for _, id := range b {
		i := w.indexOf(id)
		if i < 0 {
			return fmt.Errorf("partition: bipartition returned foreign node %d", id)
		}
		if !side[i] {
			side[i] = true
			inB++
		}
	}
	if n-inB != len(a) {
		return fmt.Errorf("partition: bipartition sides overlap (%d + %d nodes over %d)", len(a), len(b), n)
	}
	return nil
}

// splitInto writes the two induced sub-working-sets of a bipartition of
// w (side[i] false = A, true = B) into wa and wb, reusing their arrays
// when they are large enough. Ascending parent order is kept on both
// sides, so IDs stay ascending, every row stays sorted by To and
// indexOf keeps working down the recursion. Total is carried from the
// parent's sizes; each child row is the parent row minus its cut
// edges.
func (w *Weighted) splitInto(side []bool, remap []int32, wa, wb *Weighted) {
	n := w.N()
	// remap[i] is node i's dense index within its side; ents counts
	// each side's row entries (its edges, both halves).
	var na, nb, entA, entB int32
	for u := 0; u < n; u++ {
		su := side[u]
		if su {
			remap[u] = nb
			nb++
		} else {
			remap[u] = na
			na++
		}
		for _, e := range w.Row(u) {
			if side[e.To] == su {
				if su {
					entB++
				} else {
					entA++
				}
			}
		}
	}
	wa.reset(int(na), int(entA))
	wb.reset(int(nb), int(entB))
	for u := 0; u < n; u++ {
		su := side[u]
		c := wa
		if su {
			c = wb
		}
		k := remap[u]
		c.IDs[k], c.Size[k] = w.IDs[u], w.Size[u]
		c.Total += w.Size[u]
		for _, e := range w.Row(u) {
			if side[e.To] == su {
				c.Edges = append(c.Edges, WEdge{To: remap[e.To], W: e.W})
			}
		}
		c.Off[k+1] = int32(len(c.Edges))
	}
}

// reset sizes w for n nodes and room for edges row entries, reusing its
// arrays when they are large enough: IDs and Size are n long, Off holds
// its leading 0 and Edges is empty.
func (w *Weighted) reset(n, edges int) {
	w.IDs = resize(w.IDs, n)
	w.Size = resize(w.Size, n)
	w.Off = resize(w.Off, n+1)
	w.Off[0] = 0
	w.Edges = resize(w.Edges, edges)[:0]
	w.Total = 0
}

// resize returns s with length n, reusing its array when it is large
// enough and else at least doubling it, so that a scratch array asked
// for rising lengths is reallocated only now and then. The contents are
// unspecified: callers overwrite them.
func resize[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n, max(n, 2*cap(s)))
	}
	return s[:n]
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

// bisecter is a Bipartitioner of this package: it splits w within the
// side bounds b, writes the split into side (false = A, true = B; never
// one side empty) and draws its working arrays from sc, so the Figure 2
// recursion reuses one worker's arrays from subset to subset.
type bisecter interface {
	split(w *Weighted, b bounds, rng *rand.Rand, sc *scratch, side []bool) error
}

// bounds constrains a bisection's sides: side A keeps at least minA
// bytes and side B at least minB, and the search starts from side A
// grown to targetA bytes.
type bounds struct {
	minA, minB, targetA int
}

// evenBounds is a bisection of w with the side floor minSize, as the
// paper's Figure 2 asks for: when w holds less than two floors, no
// floor at all, so that a split of a subset barely above a page still
// makes progress.
func evenBounds(w *Weighted, minSize int) bounds {
	if 2*minSize > w.Total {
		minSize = 0
	}
	return bounds{minA: minSize, minB: minSize, targetA: w.Total / 2}
}

// bipartition is a bisecter's Bipartition: one split within
// evenBounds on fresh scratch, returned as id lists.
func bipartition(b bisecter, w *Weighted, minSize int, rng *rand.Rand) ([]graph.NodeID, []graph.NodeID, error) {
	side := make([]bool, w.N())
	if err := b.split(w, evenBounds(w, minSize), rng, new(scratch), side); err != nil {
		return nil, nil, err
	}
	a, bs := w.split(side)
	return a, bs, nil
}

// checkFeasible validates common preconditions.
func checkFeasible(w *Weighted) error {
	if w.N() == 0 {
		return ErrEmptyGraph
	}
	if w.N() == 1 {
		return fmt.Errorf("%w: single node cannot be bipartitioned", ErrInfeasible)
	}
	return nil
}
