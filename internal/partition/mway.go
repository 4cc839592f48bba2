package partition

import (
	"cmp"
	"slices"

	"ccam/internal/graph"
)

// MWayRefine greedily improves a multi-page assignment after top-down
// clustering, implementing the paper's remark that "M-way partitioning
// may be used to further improve the result of partitioning". pages
// place every node of w once. Each round visits the nodes in dense
// index order and moves each to the page it shares the most edge
// weight with beyond its own page's, when that gain is positive, the
// node fits there and its page keeps a record, the lower page index
// among equal gains; rounds repeat until one moves nothing or maxRounds
// (10 when not positive) have run. Returns the refined pages, emptied
// ones dropped, and the number of moves applied.
func MWayRefine(w *Weighted, pages [][]graph.NodeID, pageSize, maxRounds int) ([][]graph.NodeID, int) {
	// pageOf[i] is the page of dense index i; used counts each page's bytes.
	pageOf := make([]int32, w.N())
	used := make([]int, len(pages))
	out := make([][]graph.NodeID, len(pages))
	for p, pg := range pages {
		out[p] = slices.Clone(pg)
		for _, id := range pg {
			i := w.indexOf(id)
			pageOf[i] = int32(p)
			used[p] += w.Size[i]
		}
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	// conn[p] is the node's edge weight to page p, for the pages in
	// touched, which are visited in index order.
	conn := make([]float64, len(pages))
	var touched []int32
	moves := 0
	for round := 0; round < maxRounds; round++ {
		moved := 0
		for x := 0; x < w.N(); x++ {
			for _, e := range w.Row(x) {
				q := pageOf[e.To]
				if !slices.Contains(touched, q) {
					touched = append(touched, q)
				}
				conn[q] += e.W
			}
			slices.Sort(touched)
			home, size := pageOf[x], w.Size[x]
			best, bestGain := int32(-1), 0.0
			for _, q := range touched {
				gain := conn[q] - conn[home]
				if q != home && len(out[home]) > 1 && gain > bestGain+1e-12 && used[q]+size <= pageSize {
					best, bestGain = q, gain
				}
			}
			for _, q := range touched {
				conn[q] = 0
			}
			touched = touched[:0]
			if best >= 0 {
				id := w.IDs[x]
				k := slices.Index(out[home], id)
				out[home] = slices.Delete(out[home], k, k+1)
				out[best] = append(out[best], id)
				used[home] -= size
				used[best] += size
				pageOf[x] = best
				moved++
			}
		}
		moves += moved
		if moved == 0 {
			break
		}
	}
	return slices.DeleteFunc(out, func(pg []graph.NodeID) bool { return len(pg) == 0 }), moves
}

// DFSOrder returns the nodes of g in depth-first order from the given
// start (remaining components appended in id order), optionally
// visiting successors heaviest-edge first (WDFS-AM). This is the
// ordering primitive of the topological baselines.
func DFSOrder(g *graph.Network, start graph.NodeID, weighted bool) []graph.NodeID {
	visited := make(map[graph.NodeID]bool, g.NumNodes())
	var order []graph.NodeID
	var visit func(id graph.NodeID)
	visit = func(id graph.NodeID) {
		if visited[id] {
			return
		}
		visited[id] = true
		order = append(order, id)
		next := g.SuccessorEdges(id)
		if weighted {
			// Stable: equal weights keep their successor-list order.
			slices.SortStableFunc(next, func(a, b graph.Edge) int { return cmp.Compare(b.Weight, a.Weight) })
		}
		for _, e := range next {
			visit(e.To)
		}
		// Treat the graph as undirected for coverage: predecessors too.
		for _, p := range g.Predecessors(id) {
			visit(p)
		}
	}
	if g.HasNode(start) {
		visit(start)
	}
	for _, id := range g.NodeIDs() {
		visit(id)
	}
	return order
}

// BFSOrder returns the nodes in breadth-first order from start
// (remaining components appended in id order).
func BFSOrder(g *graph.Network, start graph.NodeID) []graph.NodeID {
	visited := make(map[graph.NodeID]bool, g.NumNodes())
	var order []graph.NodeID
	enqueue := func(queue []graph.NodeID, id graph.NodeID) []graph.NodeID {
		if !visited[id] {
			visited[id] = true
			queue = append(queue, id)
		}
		return queue
	}
	run := func(root graph.NodeID) {
		queue := enqueue(nil, root)
		for len(queue) > 0 {
			cur := queue[0]
			queue = queue[1:]
			order = append(order, cur)
			for _, s := range g.Successors(cur) {
				queue = enqueue(queue, s)
			}
			for _, p := range g.Predecessors(cur) {
				queue = enqueue(queue, p)
			}
		}
	}
	if g.HasNode(start) {
		run(start)
	}
	for _, id := range g.NodeIDs() {
		if !visited[id] {
			run(id)
		}
	}
	return order
}
