package graph

import (
	"fmt"
	"math"
	"math/rand"

	"ccam/internal/geom"
)

// RoadMapOpts configures the synthetic road-network generator that
// stands in for the paper's Minneapolis road map (see DESIGN.md §4).
type RoadMapOpts struct {
	// Rows, Cols size the underlying street lattice (intersections).
	Rows, Cols int
	// Extent is the geographic bounding box of the map.
	Extent geom.Rect
	// Jitter perturbs intersection positions by up to this fraction of
	// the cell spacing, so the map is not a perfect lattice.
	Jitter float64
	// DeleteFrac is the fraction of lattice street segments removed
	// (parks, rivers, missing links). Real road networks average an
	// undirected degree near 2.8-3.0, versus 4.0 for a full lattice.
	DeleteFrac float64
	// OneWayFrac is the fraction of surviving segments that become
	// one-way streets (a single directed edge) instead of two-way.
	OneWayFrac float64
	// DiagFrac adds diagonal shortcuts (highways) on this fraction of
	// lattice cells.
	DiagFrac float64
	// AttrBytes is the size of the opaque attribute payload stored in
	// each node record; it determines the blocking factor γ.
	AttrBytes int
	// Seed drives all randomness; equal seeds give identical maps.
	Seed int64
}

// MinneapolisLikeOpts returns generator options tuned so that the
// resulting map matches the scale of the paper's test data: 1079 nodes
// and 3057 directed edges over a 20-square-mile section, with a mean
// successor-list length near the paper's |A| = 2.833.
func MinneapolisLikeOpts() RoadMapOpts {
	return RoadMapOpts{
		Rows: 34, Cols: 33,
		Extent:     geom.NewRect(geom.Point{X: 0, Y: 0}, geom.Point{X: 8000, Y: 8000}),
		Jitter:     0.30,
		DeleteFrac: 0.245,
		OneWayFrac: 0.10,
		DiagFrac:   0.02,
		AttrBytes:  24,
		// Seed 169 lands the generator closest to the paper's data set:
		// 1077 nodes, 3045 directed edges, |A| = 2.827 (paper: 1079
		// nodes, 3057 edges, |A| = 2.833).
		Seed: 169,
	}
}

// RoadMap generates a synthetic planar road network. The construction:
// jittered lattice of intersections, random deletion of street
// segments, occasional one-way streets and diagonal shortcuts, then
// restriction to the largest weakly connected component (so every
// experiment runs on a single connected road system).
func RoadMap(opts RoadMapOpts) (*Network, error) {
	if opts.Rows < 2 || opts.Cols < 2 {
		return nil, fmt.Errorf("graph: road map needs at least a 2x2 lattice, got %dx%d", opts.Rows, opts.Cols)
	}
	if opts.DeleteFrac < 0 || opts.DeleteFrac >= 1 {
		return nil, fmt.Errorf("graph: DeleteFrac %f out of [0,1)", opts.DeleteFrac)
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	g := NewNetwork()

	cellW := opts.Extent.Width() / float64(opts.Cols-1)
	cellH := opts.Extent.Height() / float64(opts.Rows-1)
	nodeAt := func(r, c int) NodeID { return NodeID(r*opts.Cols + c) }

	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			jx := (rng.Float64()*2 - 1) * opts.Jitter * cellW
			jy := (rng.Float64()*2 - 1) * opts.Jitter * cellH
			attrs := make([]byte, opts.AttrBytes)
			rng.Read(attrs)
			if err := g.AddNode(Node{
				ID:    nodeAt(r, c),
				Pos:   geom.Point{X: opts.Extent.Min.X + float64(c)*cellW + jx, Y: opts.Extent.Min.Y + float64(r)*cellH + jy},
				Attrs: attrs,
			}); err != nil {
				return nil, err
			}
		}
	}

	addSegment := func(a, b NodeID) {
		if rng.Float64() < opts.DeleteFrac {
			return
		}
		na, _ := g.Node(a)
		nb, _ := g.Node(b)
		dist := math.Hypot(na.Pos.X-nb.Pos.X, na.Pos.Y-nb.Pos.Y)
		cost := dist * (0.8 + 0.4*rng.Float64()) // travel time varies
		if rng.Float64() < opts.OneWayFrac {
			if rng.Intn(2) == 0 {
				a, b = b, a
			}
			g.AddEdge(Edge{From: a, To: b, Cost: cost, Weight: 1})
			return
		}
		g.AddEdge(Edge{From: a, To: b, Cost: cost, Weight: 1})
		g.AddEdge(Edge{From: b, To: a, Cost: cost * (0.9 + 0.2*rng.Float64()), Weight: 1})
	}

	for r := 0; r < opts.Rows; r++ {
		for c := 0; c < opts.Cols; c++ {
			if c+1 < opts.Cols {
				addSegment(nodeAt(r, c), nodeAt(r, c+1))
			}
			if r+1 < opts.Rows {
				addSegment(nodeAt(r, c), nodeAt(r+1, c))
			}
			if r+1 < opts.Rows && c+1 < opts.Cols && rng.Float64() < opts.DiagFrac {
				if rng.Intn(2) == 0 {
					addSegment(nodeAt(r, c), nodeAt(r+1, c+1))
				} else {
					addSegment(nodeAt(r, c+1), nodeAt(r+1, c))
				}
			}
		}
	}

	keepLargestComponent(g)
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("graph: road map generation produced an empty network")
	}
	return g, nil
}

// keepLargestComponent removes every node outside the largest weakly
// connected component.
func keepLargestComponent(g *Network) {
	visited := map[NodeID]int{} // node -> component index
	comp := 0
	var compSize []int
	for id := range g.nodes {
		if _, ok := visited[id]; ok {
			continue
		}
		size := 0
		stack := []NodeID{id}
		visited[id] = comp
		for len(stack) > 0 {
			cur := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			size++
			for _, nb := range g.Neighbors(cur) {
				if _, ok := visited[nb]; !ok {
					visited[nb] = comp
					stack = append(stack, nb)
				}
			}
		}
		compSize = append(compSize, size)
		comp++
	}
	best := 0
	for i, s := range compSize {
		if s > compSize[best] {
			best = i
		}
	}
	for id, c := range visited {
		if c != best {
			g.RemoveNode(id)
		}
	}
}

// Grid generates a plain rows×cols lattice with two-way unit-cost
// streets and no deletions; useful for tests with known structure.
func Grid(rows, cols int) *Network {
	g := NewNetwork()
	id := func(r, c int) NodeID { return NodeID(r*cols + c) }
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			g.AddNode(Node{ID: id(r, c), Pos: geom.Point{X: float64(c), Y: float64(r)}})
		}
	}
	for r := 0; r < rows; r++ {
		for c := 0; c < cols; c++ {
			if c+1 < cols {
				g.AddEdge(Edge{From: id(r, c), To: id(r, c+1), Cost: 1, Weight: 1})
				g.AddEdge(Edge{From: id(r, c+1), To: id(r, c), Cost: 1, Weight: 1})
			}
			if r+1 < rows {
				g.AddEdge(Edge{From: id(r, c), To: id(r+1, c), Cost: 1, Weight: 1})
				g.AddEdge(Edge{From: id(r+1, c), To: id(r, c), Cost: 1, Weight: 1})
			}
		}
	}
	return g
}

// RandomGeometric generates n nodes uniformly in extent, connecting
// pairs within radius by two-way edges; the classic random geometric
// graph, restricted to its largest component.
func RandomGeometric(n int, radius float64, extent geom.Rect, seed int64) *Network {
	rng := rand.New(rand.NewSource(seed))
	g := NewNetwork()
	for i := 0; i < n; i++ {
		g.AddNode(Node{
			ID: NodeID(i),
			Pos: geom.Point{
				X: extent.Min.X + rng.Float64()*extent.Width(),
				Y: extent.Min.Y + rng.Float64()*extent.Height(),
			},
		})
	}
	ids := g.NodeIDs()
	for i, a := range ids {
		na, _ := g.Node(a)
		for _, b := range ids[i+1:] {
			nb, _ := g.Node(b)
			d := math.Hypot(na.Pos.X-nb.Pos.X, na.Pos.Y-nb.Pos.Y)
			if d <= radius {
				g.AddEdge(Edge{From: a, To: b, Cost: d, Weight: 1})
				g.AddEdge(Edge{From: b, To: a, Cost: d, Weight: 1})
			}
		}
	}
	keepLargestComponent(g)
	return g
}

// Route is a node sequence n1..nk connected by directed edges, the unit
// of the paper's route evaluation queries.
type Route []NodeID

// Validate checks that every consecutive pair is a directed edge of g.
func (r Route) Validate(g *Network) error {
	if len(r) == 0 {
		return fmt.Errorf("%w: empty", ErrInvalidRoute)
	}
	for i := 0; i+1 < len(r); i++ {
		if _, err := g.Edge(r[i], r[i+1]); err != nil {
			return fmt.Errorf("%w: hop %d: %v", ErrInvalidRoute, i, err)
		}
	}
	return nil
}

// RandomWalkRoutes generates count routes of exactly length nodes each
// by random walks on g, as in the paper's route-evaluation experiment
// (a route of length L has L nodes and L-1 edges). Walks avoid
// immediately backtracking when another choice exists. Starting nodes
// are sampled uniformly; walks that dead-end restart from a fresh node.
func RandomWalkRoutes(g *Network, count, length int, rng *rand.Rand) ([]Route, error) {
	if length < 2 {
		return nil, fmt.Errorf("graph: route length %d < 2", length)
	}
	ids := g.NodeIDs()
	if len(ids) == 0 {
		return nil, fmt.Errorf("graph: empty network")
	}
	routes := make([]Route, 0, count)
	const maxAttemptsPerRoute = 1000
	for len(routes) < count {
		var route Route
		ok := false
		for attempt := 0; attempt < maxAttemptsPerRoute; attempt++ {
			route = route[:0]
			cur := ids[rng.Intn(len(ids))]
			route = append(route, cur)
			prev := InvalidNodeID
			for len(route) < length {
				succs := g.Successors(cur)
				if len(succs) == 0 {
					break
				}
				// Prefer not to bounce straight back.
				cand := succs
				if len(succs) > 1 && prev != InvalidNodeID {
					cand = cand[:0:0]
					for _, s := range succs {
						if s != prev {
							cand = append(cand, s)
						}
					}
					if len(cand) == 0 {
						cand = succs
					}
				}
				nxt := cand[rng.Intn(len(cand))]
				route = append(route, nxt)
				prev, cur = cur, nxt
			}
			if len(route) == length {
				ok = true
				break
			}
		}
		if !ok {
			return nil, fmt.Errorf("graph: could not generate route of length %d (network too constrained)", length)
		}
		routes = append(routes, append(Route(nil), route...))
	}
	return routes, nil
}

// ApplyRouteWeights sets each edge's access weight to the number of
// times the routes traverse it (the paper's non-uniform weight
// derivation for the WCRR experiments). Edges not on any route get
// weight 0. Returns the number of traversals counted.
func ApplyRouteWeights(g *Network, routes []Route) (int, error) {
	counts := map[[2]NodeID]float64{}
	total := 0
	for _, r := range routes {
		if err := r.Validate(g); err != nil {
			return 0, err
		}
		for i := 0; i+1 < len(r); i++ {
			counts[[2]NodeID{r[i], r[i+1]}]++
			total++
		}
	}
	for from, hes := range g.succ {
		for i := range hes {
			g.succ[from][i].weight = counts[[2]NodeID{from, hes[i].to}]
		}
	}
	return total, nil
}

// UniformWeights resets every edge's access weight to 1.
func UniformWeights(g *Network) {
	for from := range g.succ {
		for i := range g.succ[from] {
			g.succ[from][i].weight = 1
		}
	}
}

// RadialCityOpts configures the ring-and-spoke generator.
type RadialCityOpts struct {
	// Rings is the number of concentric ring roads; Spokes the number
	// of radial arterials.
	Rings, Spokes int
	// Radius is the outermost ring's radius; rings are spaced evenly.
	Radius float64
	// Center is the city centre (also a node, connected to ring 1).
	Center geom.Point
	// Jitter perturbs node positions by up to this fraction of the ring
	// spacing.
	Jitter float64
	// DeleteFrac removes this fraction of road segments.
	DeleteFrac float64
	// AttrBytes sizes the per-node attribute payload.
	AttrBytes int
	// Seed drives all randomness.
	Seed int64
}

// RadialCity generates a ring-and-spoke road network — the older
// European-city topology, as opposed to RoadMap's American grid. Nodes
// sit at ring/spoke intersections; edges follow rings and spokes, all
// two-way. The generator exercises clustering on a topology whose
// connectivity/proximity correlation differs from a grid (rings are
// long thin loops).
func RadialCity(opts RadialCityOpts) (*Network, error) {
	if opts.Rings < 1 || opts.Spokes < 3 {
		return nil, fmt.Errorf("graph: radial city needs >=1 ring and >=3 spokes, got %d/%d", opts.Rings, opts.Spokes)
	}
	if opts.Radius <= 0 {
		opts.Radius = 1000
	}
	rng := rand.New(rand.NewSource(opts.Seed))
	g := NewNetwork()
	spacing := opts.Radius / float64(opts.Rings)

	id := func(ring, spoke int) NodeID { return NodeID(ring*opts.Spokes + spoke) }
	centerID := NodeID(opts.Rings * opts.Spokes)

	attrs := func() []byte {
		if opts.AttrBytes <= 0 {
			return nil
		}
		b := make([]byte, opts.AttrBytes)
		rng.Read(b)
		return b
	}
	for ring := 0; ring < opts.Rings; ring++ {
		r := spacing * float64(ring+1)
		for spoke := 0; spoke < opts.Spokes; spoke++ {
			angle := 2 * math.Pi * float64(spoke) / float64(opts.Spokes)
			jx := (rng.Float64()*2 - 1) * opts.Jitter * spacing
			jy := (rng.Float64()*2 - 1) * opts.Jitter * spacing
			if err := g.AddNode(Node{
				ID: id(ring, spoke),
				Pos: geom.Point{
					X: opts.Center.X + r*math.Cos(angle) + jx,
					Y: opts.Center.Y + r*math.Sin(angle) + jy,
				},
				Attrs: attrs(),
			}); err != nil {
				return nil, err
			}
		}
	}
	if err := g.AddNode(Node{ID: centerID, Pos: opts.Center, Attrs: attrs()}); err != nil {
		return nil, err
	}

	addSegment := func(a, b NodeID) {
		if rng.Float64() < opts.DeleteFrac {
			return
		}
		na, _ := g.Node(a)
		nb, _ := g.Node(b)
		dist := math.Hypot(na.Pos.X-nb.Pos.X, na.Pos.Y-nb.Pos.Y)
		cost := dist * (0.8 + 0.4*rng.Float64())
		g.AddEdge(Edge{From: a, To: b, Cost: cost, Weight: 1})
		g.AddEdge(Edge{From: b, To: a, Cost: cost * (0.9 + 0.2*rng.Float64()), Weight: 1})
	}
	// Ring roads.
	for ring := 0; ring < opts.Rings; ring++ {
		for spoke := 0; spoke < opts.Spokes; spoke++ {
			addSegment(id(ring, spoke), id(ring, (spoke+1)%opts.Spokes))
		}
	}
	// Spoke roads, including centre connections.
	for spoke := 0; spoke < opts.Spokes; spoke++ {
		addSegment(centerID, id(0, spoke))
		for ring := 0; ring+1 < opts.Rings; ring++ {
			addSegment(id(ring, spoke), id(ring+1, spoke))
		}
	}
	keepLargestComponent(g)
	if g.NumNodes() == 0 {
		return nil, fmt.Errorf("graph: radial city generation produced an empty network")
	}
	return g, nil
}
