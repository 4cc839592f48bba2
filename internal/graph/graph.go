// Package graph models the networks CCAM stores: directed graphs whose
// nodes carry planar coordinates and whose node records keep both a
// successor-list (outgoing edges with costs) and a predecessor-list
// (incoming edges), exactly as in the paper's adjacency-list
// representation. It also provides the clustering-quality metrics CRR
// and WCRR, synthetic road-map generators standing in for the
// Minneapolis data set, and random-walk route generation for the route
// evaluation experiments.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"

	"ccam/internal/geom"
)

// NodeID identifies a network node.
type NodeID uint32

// InvalidNodeID is a sentinel for "no node".
const InvalidNodeID = NodeID(^uint32(0))

// Errors returned by network mutations.
var (
	ErrNodeExists   = errors.New("graph: node already exists")
	ErrNodeMissing  = errors.New("graph: node not found")
	ErrEdgeExists   = errors.New("graph: edge already exists")
	ErrEdgeMissing  = errors.New("graph: edge not found")
	ErrSelfLoop     = errors.New("graph: self loops not supported")
	ErrInvalidRoute = errors.New("graph: invalid route")
)

// Edge is a directed edge with a traversal cost (e.g. travel time) and
// an access weight w(u,v): the relative frequency with which queries
// access u and v together. Uniform-weight experiments set Weight = 1.
type Edge struct {
	From, To NodeID
	Cost     float64
	Weight   float64
}

// Node is a network node: identity, embedding coordinates, and an
// application payload (opaque attribute bytes sized like real road
// attributes so that blocking factors are realistic).
type Node struct {
	ID    NodeID
	Pos   geom.Point
	Attrs []byte
}

// halfEdge is the adjacency-list entry stored per direction.
type halfEdge struct {
	to     NodeID
	cost   float64
	weight float64
}

// Network is a mutable directed graph with successor- and
// predecessor-lists per node.
type Network struct {
	nodes map[NodeID]*Node
	succ  map[NodeID][]halfEdge // outgoing
	pred  map[NodeID][]NodeID   // incoming (origin ids)
	edges int
}

// NewNetwork returns an empty network.
func NewNetwork() *Network {
	return &Network{
		nodes: make(map[NodeID]*Node),
		succ:  make(map[NodeID][]halfEdge),
		pred:  make(map[NodeID][]NodeID),
	}
}

// NumNodes returns the number of nodes.
func (g *Network) NumNodes() int { return len(g.nodes) }

// NumEdges returns the number of directed edges.
func (g *Network) NumEdges() int { return g.edges }

// HasNode reports whether id exists.
func (g *Network) HasNode(id NodeID) bool {
	_, ok := g.nodes[id]
	return ok
}

// Node returns the node with the given id.
func (g *Network) Node(id NodeID) (*Node, error) {
	n, ok := g.nodes[id]
	if !ok {
		return nil, fmt.Errorf("%w: %d", ErrNodeMissing, id)
	}
	return n, nil
}

// AddNode inserts a node.
func (g *Network) AddNode(n Node) error {
	if _, ok := g.nodes[n.ID]; ok {
		return fmt.Errorf("%w: %d", ErrNodeExists, n.ID)
	}
	cp := n
	if n.Attrs != nil {
		cp.Attrs = append([]byte(nil), n.Attrs...)
	}
	g.nodes[n.ID] = &cp
	return nil
}

// RemoveNode deletes a node and all incident edges.
func (g *Network) RemoveNode(id NodeID) error {
	if _, ok := g.nodes[id]; !ok {
		return fmt.Errorf("%w: %d", ErrNodeMissing, id)
	}
	for _, he := range g.succ[id] {
		g.pred[he.to] = removeID(g.pred[he.to], id)
		g.edges--
	}
	for _, from := range g.pred[id] {
		g.succ[from] = removeHalfEdge(g.succ[from], id)
		g.edges--
	}
	delete(g.succ, id)
	delete(g.pred, id)
	delete(g.nodes, id)
	return nil
}

// AddEdge inserts a directed edge.
func (g *Network) AddEdge(e Edge) error {
	if e.From == e.To {
		return fmt.Errorf("%w: %d", ErrSelfLoop, e.From)
	}
	if !g.HasNode(e.From) {
		return fmt.Errorf("%w: from %d", ErrNodeMissing, e.From)
	}
	if !g.HasNode(e.To) {
		return fmt.Errorf("%w: to %d", ErrNodeMissing, e.To)
	}
	for _, he := range g.succ[e.From] {
		if he.to == e.To {
			return fmt.Errorf("%w: %d->%d", ErrEdgeExists, e.From, e.To)
		}
	}
	g.succ[e.From] = append(g.succ[e.From], halfEdge{to: e.To, cost: e.Cost, weight: e.Weight})
	g.pred[e.To] = append(g.pred[e.To], e.From)
	g.edges++
	return nil
}

// RemoveEdge deletes the directed edge from->to.
func (g *Network) RemoveEdge(from, to NodeID) error {
	hes := g.succ[from]
	found := false
	for _, he := range hes {
		if he.to == to {
			found = true
			break
		}
	}
	if !found {
		return fmt.Errorf("%w: %d->%d", ErrEdgeMissing, from, to)
	}
	g.succ[from] = removeHalfEdge(hes, to)
	g.pred[to] = removeID(g.pred[to], from)
	g.edges--
	return nil
}

// Edge returns the directed edge from->to.
func (g *Network) Edge(from, to NodeID) (Edge, error) {
	for _, he := range g.succ[from] {
		if he.to == to {
			return Edge{From: from, To: to, Cost: he.cost, Weight: he.weight}, nil
		}
	}
	return Edge{}, fmt.Errorf("%w: %d->%d", ErrEdgeMissing, from, to)
}

// Successors returns the successor node ids of id (the adjacency list).
func (g *Network) Successors(id NodeID) []NodeID {
	hes := g.succ[id]
	out := make([]NodeID, len(hes))
	for i, he := range hes {
		out[i] = he.to
	}
	return out
}

// SuccessorEdges returns the outgoing edges of id.
func (g *Network) SuccessorEdges(id NodeID) []Edge {
	hes := g.succ[id]
	out := make([]Edge, len(hes))
	for i, he := range hes {
		out[i] = Edge{From: id, To: he.to, Cost: he.cost, Weight: he.weight}
	}
	return out
}

// Predecessors returns the predecessor node ids of id.
func (g *Network) Predecessors(id NodeID) []NodeID {
	return append([]NodeID(nil), g.pred[id]...)
}

// Degree returns the lengths of id's successor- and predecessor-lists.
func (g *Network) Degree(id NodeID) (succs, preds int) {
	return len(g.succ[id]), len(g.pred[id])
}

// VisitIncident calls fn once per edge incident to id, with the node at
// its other end and its access weight: first each outgoing edge in
// successor-list order, then each incoming edge in predecessor-list
// order. Nothing is copied, so fn must not mutate the network.
func (g *Network) VisitIncident(id NodeID, fn func(other NodeID, weight float64)) {
	for _, he := range g.succ[id] {
		fn(he.to, he.weight)
	}
	for _, from := range g.pred[id] {
		for _, he := range g.succ[from] {
			if he.to == id {
				fn(from, he.weight)
				break
			}
		}
	}
}

// Neighbors returns the neighbor-list of id: every node appearing in
// its successor- or predecessor-list, deduplicated, order unspecified.
func (g *Network) Neighbors(id NodeID) []NodeID {
	seen := make(map[NodeID]bool, len(g.succ[id])+len(g.pred[id]))
	var out []NodeID
	for _, he := range g.succ[id] {
		if !seen[he.to] {
			seen[he.to] = true
			out = append(out, he.to)
		}
	}
	for _, from := range g.pred[id] {
		if !seen[from] {
			seen[from] = true
			out = append(out, from)
		}
	}
	return out
}

// NodeIDs returns all node ids in ascending order.
func (g *Network) NodeIDs() []NodeID {
	out := make([]NodeID, 0, len(g.nodes))
	for id := range g.nodes {
		out = append(out, id)
	}
	slices.Sort(out)
	return out
}

// Edges returns all directed edges, ordered by (From, To).
func (g *Network) Edges() []Edge {
	out := make([]Edge, 0, g.edges)
	for _, id := range g.NodeIDs() {
		hes := g.succ[id]
		es := make([]Edge, len(hes))
		for i, he := range hes {
			es[i] = Edge{From: id, To: he.to, Cost: he.cost, Weight: he.weight}
		}
		slices.SortFunc(es, func(a, b Edge) int { return cmp.Compare(a.To, b.To) })
		out = append(out, es...)
	}
	return out
}

// Clone returns a deep copy of the network.
func (g *Network) Clone() *Network {
	c := NewNetwork()
	for id, n := range g.nodes {
		cp := *n
		if n.Attrs != nil {
			cp.Attrs = append([]byte(nil), n.Attrs...)
		}
		c.nodes[id] = &cp
	}
	for id, hes := range g.succ {
		c.succ[id] = append([]halfEdge(nil), hes...)
	}
	for id, ps := range g.pred {
		c.pred[id] = append([]NodeID(nil), ps...)
	}
	c.edges = g.edges
	return c
}

// Subnetwork returns the subgraph induced by keep: the kept nodes and
// every edge with both endpoints kept.
func (g *Network) Subnetwork(keep map[NodeID]bool) *Network {
	s := NewNetwork()
	for id := range keep {
		if n, ok := g.nodes[id]; ok {
			s.AddNode(*n)
		}
	}
	for id := range keep {
		for _, he := range g.succ[id] {
			if keep[he.to] {
				s.AddEdge(Edge{From: id, To: he.to, Cost: he.cost, Weight: he.weight})
			}
		}
	}
	return s
}

// Bounds returns the bounding rectangle of all node positions.
func (g *Network) Bounds() geom.Rect {
	first := true
	var r geom.Rect
	for _, n := range g.nodes {
		if first {
			r = geom.Rect{Min: n.Pos, Max: n.Pos}
			first = false
			continue
		}
		if n.Pos.X < r.Min.X {
			r.Min.X = n.Pos.X
		}
		if n.Pos.Y < r.Min.Y {
			r.Min.Y = n.Pos.Y
		}
		if n.Pos.X > r.Max.X {
			r.Max.X = n.Pos.X
		}
		if n.Pos.Y > r.Max.Y {
			r.Max.Y = n.Pos.Y
		}
	}
	return r
}

// AvgSuccessors returns |A|: the mean length of the successor-list.
func (g *Network) AvgSuccessors() float64 {
	if len(g.nodes) == 0 {
		return 0
	}
	return float64(g.edges) / float64(len(g.nodes))
}

// AvgNeighbors returns λ: the mean length of the neighbor-list.
func (g *Network) AvgNeighbors() float64 {
	if len(g.nodes) == 0 {
		return 0
	}
	total := 0
	for id := range g.nodes {
		total += len(g.Neighbors(id))
	}
	return float64(total) / float64(len(g.nodes))
}

// Validate checks structural invariants: successor/predecessor
// symmetry, no dangling endpoints, and an accurate edge counter.
func (g *Network) Validate() error {
	n := 0
	for id, hes := range g.succ {
		if _, ok := g.nodes[id]; !ok {
			return fmt.Errorf("graph: succ list for missing node %d", id)
		}
		for _, he := range hes {
			if _, ok := g.nodes[he.to]; !ok {
				return fmt.Errorf("graph: edge %d->%d to missing node", id, he.to)
			}
			if !containsID(g.pred[he.to], id) {
				return fmt.Errorf("graph: edge %d->%d missing from pred list", id, he.to)
			}
			n++
		}
	}
	for id, ps := range g.pred {
		if _, ok := g.nodes[id]; !ok {
			return fmt.Errorf("graph: pred list for missing node %d", id)
		}
		for _, from := range ps {
			found := false
			for _, he := range g.succ[from] {
				if he.to == id {
					found = true
					break
				}
			}
			if !found {
				return fmt.Errorf("graph: pred entry %d<-%d missing from succ list", id, from)
			}
		}
	}
	if n != g.edges {
		return fmt.Errorf("graph: edge count %d, counted %d", g.edges, n)
	}
	return nil
}

func removeID(s []NodeID, id NodeID) []NodeID {
	for i, v := range s {
		if v == id {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func removeHalfEdge(s []halfEdge, to NodeID) []halfEdge {
	for i, he := range s {
		if he.to == to {
			return append(s[:i], s[i+1:]...)
		}
	}
	return s
}

func containsID(s []NodeID, id NodeID) bool {
	for _, v := range s {
		if v == id {
			return true
		}
	}
	return false
}
