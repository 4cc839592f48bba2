package partition

import (
	"sort"

	"ccam/internal/graph"
)

// MWayRefine greedily improves a multi-page assignment after top-down
// clustering, implementing the paper's remark that "M-way partitioning
// may be used to further improve the result of partitioning". Each
// round scans boundary nodes (nodes with a neighbor on another page)
// and applies the single-node page move with the largest positive
// weighted-gain that fits in the destination page, the lower page index
// among equal gains; rounds repeat until no improving move exists or
// maxRounds is reached. Returns the refined pages and the number of
// moves applied.
func MWayRefine(g *graph.Network, pages [][]graph.NodeID, sizeOf func(graph.NodeID) int, pageSize, maxRounds int) ([][]graph.NodeID, int) {
	// page index per node and used bytes per page.
	pageOf := make(map[graph.NodeID]int)
	used := make([]int, len(pages))
	out := make([][]graph.NodeID, len(pages))
	for i, pg := range pages {
		out[i] = append([]graph.NodeID(nil), pg...)
		for _, id := range pg {
			pageOf[id] = i
			used[i] += sizeOf(id)
		}
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}

	// connWeight returns, per candidate page, the total weight of edges
	// between x and nodes on that page.
	connWeight := func(x graph.NodeID) map[int]float64 {
		conn := map[int]float64{}
		for _, e := range g.SuccessorEdges(x) {
			conn[pageOf[e.To]] += e.Weight
		}
		for _, p := range g.Predecessors(x) {
			if e, err := g.Edge(p, x); err == nil {
				conn[pageOf[p]] += e.Weight
			}
		}
		return conn
	}

	moves := 0
	var cands []int
	for round := 0; round < maxRounds; round++ {
		movedThisRound := 0
		for _, x := range g.NodeIDs() {
			home, ok := pageOf[x]
			if !ok {
				continue
			}
			conn := connWeight(x)
			// Visit the candidate pages in index order: a tie goes to the
			// lower page, whatever order the map yields them in.
			cands = cands[:0]
			for pg := range conn {
				cands = append(cands, pg)
			}
			sort.Ints(cands)
			bestPage, bestGain := -1, 0.0
			for _, pg := range cands {
				if pg == home {
					continue
				}
				gain := conn[pg] - conn[home]
				if gain > bestGain+1e-12 && used[pg]+sizeOf(x) <= pageSize {
					// Do not empty the home page entirely.
					if len(out[home]) <= 1 {
						continue
					}
					bestPage, bestGain = pg, gain
				}
			}
			if bestPage >= 0 {
				out[home] = removeNodeID(out[home], x)
				out[bestPage] = append(out[bestPage], x)
				used[home] -= sizeOf(x)
				used[bestPage] += sizeOf(x)
				pageOf[x] = bestPage
				movedThisRound++
			}
		}
		moves += movedThisRound
		if movedThisRound == 0 {
			break
		}
	}
	// Drop pages that somehow became empty.
	final := out[:0]
	for _, pg := range out {
		if len(pg) > 0 {
			final = append(final, pg)
		}
	}
	return final, moves
}

func removeNodeID(s []graph.NodeID, id graph.NodeID) []graph.NodeID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
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
			sortEdgesByWeightDesc(next)
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

func sortEdgesByWeightDesc(es []graph.Edge) {
	for i := 1; i < len(es); i++ {
		for j := i; j > 0 && es[j].Weight > es[j-1].Weight; j-- {
			es[j], es[j-1] = es[j-1], es[j]
		}
	}
}

// CoalescePages greedily merges pairs of pages whose combined contents
// fit in one page, preferring pairs that are adjacent in the page
// access graph (merging connected pages can only help CRR; merging
// unrelated pages never hurts it). Top-down clustering guarantees pages
// at least half full, so coalescing mainly lifts the blocking factor;
// it returns the new page list and the number of merges performed.
func CoalescePages(g *graph.Network, pages [][]graph.NodeID, sizeOf func(graph.NodeID) int, pageSize, maxRounds int) ([][]graph.NodeID, int) {
	out := make([][]graph.NodeID, len(pages))
	used := make([]int, len(pages))
	pageOf := map[graph.NodeID]int{}
	for i, pg := range pages {
		out[i] = append([]graph.NodeID(nil), pg...)
		for _, id := range pg {
			used[i] += sizeOf(id)
			pageOf[id] = i
		}
	}
	if maxRounds <= 0 {
		maxRounds = 10
	}
	merges := 0
	for round := 0; round < maxRounds; round++ {
		// Weight of edges between each pair of pages.
		conn := map[[2]int]float64{}
		for _, e := range g.Edges() {
			a, aok := pageOf[e.From]
			b, bok := pageOf[e.To]
			if !aok || !bok || a == b {
				continue
			}
			if a > b {
				a, b = b, a
			}
			conn[[2]int{a, b}] += e.Weight
		}
		// Candidate merges, most-connected first; pages merge at most
		// once per round.
		type cand struct {
			a, b int
			w    float64
		}
		var cands []cand
		for k, w := range conn {
			if len(out[k[0]]) == 0 || len(out[k[1]]) == 0 {
				continue
			}
			if used[k[0]]+used[k[1]] <= pageSize {
				cands = append(cands, cand{k[0], k[1], w})
			}
		}
		sort.Slice(cands, func(i, j int) bool {
			if cands[i].w != cands[j].w {
				return cands[i].w > cands[j].w
			}
			if cands[i].a != cands[j].a {
				return cands[i].a < cands[j].a
			}
			return cands[i].b < cands[j].b
		})
		mergedThisRound := 0
		taken := map[int]bool{}
		for _, c := range cands {
			if taken[c.a] || taken[c.b] {
				continue
			}
			if used[c.a]+used[c.b] > pageSize {
				continue
			}
			for _, id := range out[c.b] {
				pageOf[id] = c.a
			}
			out[c.a] = append(out[c.a], out[c.b]...)
			used[c.a] += used[c.b]
			out[c.b] = nil
			used[c.b] = 0
			taken[c.a], taken[c.b] = true, true
			mergedThisRound++
		}
		merges += mergedThisRound
		if mergedThisRound == 0 {
			break
		}
	}
	final := make([][]graph.NodeID, 0, len(out))
	for _, pg := range out {
		if len(pg) > 0 {
			final = append(final, pg)
		}
	}
	return final, merges
}
