// Package query implements the aggregate network computations the
// paper motivates on top of the stored file: shortest paths (Dijkstra,
// or A* with a distance heuristic, built on Get-successors as the paper
// describes), tour evaluation, and location-allocation evaluation (both
// named in the paper's future work). Every computation reads node records through a
// netfile.File, so its data-page I/O reflects the access method's
// clustering quality.
package query

import (
	"container/heap"
	"context"
	"errors"
	"fmt"
	"math"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// Errors returned by query evaluation.
var (
	ErrNoPath       = errors.New("query: no path")
	ErrInvalidTour  = errors.New("query: invalid tour")
	ErrNoFacilities = errors.New("query: no facilities")
)

// Reader is the record-access surface the aggregate computations
// traverse: the paper's Find / Get-A-successor operations plus route
// evaluation. Both the live *netfile.File and an LSN-pinned
// *netfile.Snapshot implement it, so a search can run either
// exclusively latched or against a consistent snapshot while mutation
// batches commit concurrently.
type Reader interface {
	FindCtx(ctx context.Context, id graph.NodeID) (*netfile.Record, error)
	Has(id graph.NodeID) bool
	GetASuccessor(cur *netfile.Record, succ graph.NodeID) (*netfile.Record, error)
	EvaluateRouteCtx(ctx context.Context, route graph.Route) (netfile.RouteAggregate, error)
}

var (
	_ Reader = (*netfile.File)(nil)
	_ Reader = (*netfile.Snapshot)(nil)
)

// Path is a shortest-path result.
type Path struct {
	Nodes graph.Route
	Cost  float64
	// Expanded is the number of Get-successors expansions performed.
	Expanded int
}

// pqItem is a priority-queue entry for the searches.
type pqItem struct {
	id   graph.NodeID
	dist float64
	rank float64 // dist + heuristic (equals dist for Dijkstra)
}

type pq []pqItem

func (q pq) Len() int            { return len(q) }
func (q pq) Less(i, j int) bool  { return q[i].rank < q[j].rank }
func (q pq) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *pq) Push(x interface{}) { *q = append(*q, x.(pqItem)) }
func (q *pq) Pop() interface{} {
	old := *q
	n := len(old)
	x := old[n-1]
	*q = old[:n-1]
	return x
}

// ShortestPath computes a cheapest path from src to dst over the
// stored network, expanding nodes with Get-successors. With
// minCostPerUnit > 0 it runs A* under a consistent Euclidean-distance
// heuristic scaled by minCostPerUnit, a lower bound on the edge cost
// per unit of straight-line distance; 0 runs Dijkstra. The context is
// checked before each record fetch.
func ShortestPath(ctx context.Context, f Reader, src, dst graph.NodeID, minCostPerUnit float64) (Path, error) {
	var h func(geom.Point) float64
	if minCostPerUnit > 0 {
		dstRec, err := f.FindCtx(ctx, dst)
		if err != nil {
			return Path{}, err
		}
		h = func(p geom.Point) float64 {
			return math.Hypot(p.X-dstRec.Pos.X, p.Y-dstRec.Pos.Y) * minCostPerUnit
		}
	}
	srcRec, err := f.FindCtx(ctx, src)
	if err != nil {
		return Path{}, err
	}
	if !f.Has(dst) {
		return Path{}, fmt.Errorf("%w: %d", netfile.ErrNotFound, dst)
	}
	// nodes holds what the search knows of each node it has reached. A
	// node's heuristic is computed when it is first reached and kept, so
	// A* reads each position once however often a distance falls.
	nodes := map[graph.NodeID]searchNode{}
	src0 := searchNode{prev: src}
	if h != nil {
		src0.h = h(srcRec.Pos)
	}
	nodes[src] = src0
	q := &pq{}
	heap.Push(q, pqItem{id: src, dist: 0, rank: src0.h})
	expanded := 0

	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		n := nodes[cur.id]
		if n.done {
			continue
		}
		n.done = true
		nodes[cur.id] = n
		if cur.id == dst {
			return Path{Nodes: reconstruct(nodes, src, dst), Cost: cur.dist, Expanded: expanded}, nil
		}
		// Expand via Get-successors: the dominant I/O of graph search,
		// as the paper observes.
		rec, err := f.FindCtx(ctx, cur.id)
		if err != nil {
			return Path{}, err
		}
		expanded++
		for _, s := range rec.Succs {
			nd := cur.dist + float64(s.Cost)
			sn, reached := nodes[s.To]
			if reached && (sn.done || nd >= sn.dist) {
				continue
			}
			if !reached && h != nil {
				if err := ctx.Err(); err != nil {
					return Path{}, err
				}
				sr, err := f.GetASuccessor(rec, s.To)
				if err != nil {
					return Path{}, err
				}
				sn.h = h(sr.Pos)
			}
			sn.dist, sn.prev = nd, cur.id
			nodes[s.To] = sn
			heap.Push(q, pqItem{id: s.To, dist: nd, rank: nd + sn.h})
		}
	}
	return Path{}, fmt.Errorf("%w: %d -> %d", ErrNoPath, src, dst)
}

// searchNode is ShortestPath's state of one reached node: the cost of
// the cheapest path to it found so far and the node before it on that
// path, its heuristic (0 for Dijkstra), and whether it was expanded.
type searchNode struct {
	dist, h float64
	prev    graph.NodeID
	done    bool
}

func reconstruct(nodes map[graph.NodeID]searchNode, src, dst graph.NodeID) graph.Route {
	var rev graph.Route
	for cur := dst; ; {
		rev = append(rev, cur)
		if cur == src {
			break
		}
		cur = nodes[cur].prev
	}
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// TourAggregate is the result of a tour evaluation query: a route that
// returns to its starting node.
type TourAggregate struct {
	netfile.RouteAggregate
	// Closed confirms the tour returned to its start.
	Closed bool
}

// EvaluateTour evaluates a closed tour n1, n2, ..., nk, n1 (tour
// evaluation, named in the paper's future work). The input lists each
// node once; the closing edge nk -> n1 must exist. The context is
// checked before each hop's fetch.
func EvaluateTour(ctx context.Context, f Reader, tour graph.Route) (TourAggregate, error) {
	if len(tour) < 3 {
		return TourAggregate{}, fmt.Errorf("%w: need at least 3 nodes, got %d", ErrInvalidTour, len(tour))
	}
	if tour[0] == tour[len(tour)-1] {
		return TourAggregate{}, fmt.Errorf("%w: do not repeat the starting node", ErrInvalidTour)
	}
	closed := append(append(graph.Route{}, tour...), tour[0])
	agg, err := f.EvaluateRouteCtx(ctx, closed)
	if err != nil {
		return TourAggregate{}, err
	}
	return TourAggregate{RouteAggregate: agg, Closed: true}, nil
}

// Allocation assigns one demand node to its nearest facility.
type Allocation struct {
	Demand   graph.NodeID
	Facility graph.NodeID
	Cost     float64
}

// LocationAllocation evaluates a location-allocation configuration
// (the paper's future work): given a set of facility nodes, every
// reachable node of the network is allocated to its cheapest facility
// by network distance (a multi-source Dijkstra over the stored file).
// It returns the allocations in unspecified order together with the
// total and maximum assignment costs. The context is checked before
// each record fetch.
func LocationAllocation(ctx context.Context, f Reader, facilities []graph.NodeID) ([]Allocation, float64, float64, error) {
	if len(facilities) == 0 {
		return nil, 0, 0, ErrNoFacilities
	}
	dist := map[graph.NodeID]float64{}
	owner := map[graph.NodeID]graph.NodeID{}
	done := map[graph.NodeID]bool{}
	q := &pq{}
	for _, fac := range facilities {
		if !f.Has(fac) {
			return nil, 0, 0, fmt.Errorf("%w: facility %d", netfile.ErrNotFound, fac)
		}
		dist[fac] = 0
		owner[fac] = fac
		heap.Push(q, pqItem{id: fac, dist: 0, rank: 0})
	}
	for q.Len() > 0 {
		cur := heap.Pop(q).(pqItem)
		if done[cur.id] {
			continue
		}
		done[cur.id] = true
		rec, err := f.FindCtx(ctx, cur.id)
		if err != nil {
			return nil, 0, 0, err
		}
		for _, s := range rec.Succs {
			if done[s.To] {
				continue
			}
			nd := cur.dist + float64(s.Cost)
			if old, ok := dist[s.To]; !ok || nd < old {
				dist[s.To] = nd
				owner[s.To] = owner[cur.id]
				heap.Push(q, pqItem{id: s.To, dist: nd, rank: nd})
			}
		}
	}
	var out []Allocation
	var total, worst float64
	for id, d := range dist {
		out = append(out, Allocation{Demand: id, Facility: owner[id], Cost: d})
		total += d
		if d > worst {
			worst = d
		}
	}
	return out, total, worst, nil
}
