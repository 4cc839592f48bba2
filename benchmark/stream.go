package main

import (
	"fmt"
	"math"
	"math/rand"

	"ccam"
)

// netmix is the op stream of every workload: 45% Find, 25%
// GetSuccessors, 15% EvaluateRoute over 32-hop random walks, 10%
// RangeQuery on a window of about 30 nodes, 5% "NEIGHBORS <id> DEPTH
// 2". Keys follow a Zipf law (see zipfS) over a seeded permutation of the
// node ids, so some crossroads are hot and the tail is long; routes and
// window centres are picked the same way.

type opKind uint8

const (
	opFind opKind = iota
	opSucc
	opRoute
	opRange
	opQuery
	// opApply is not part of the stream: the writer records its batches
	// under it.
	opApply
	numKinds
)

var kindNames = [numKinds]string{"find", "succ", "route", "range", "query", "apply"}

// op is one generated request. Only the fields of its kind are set.
type op struct {
	kind  opKind
	id    ccam.NodeID // find, succ, query
	route int         // index into mix.routes
	rect  ccam.Rect   // range
	query string      // query
}

// mix is the seed-dependent, read-only part of the stream that all
// clients of a run share.
type mix struct {
	perm   []ccam.NodeID // Zipf rank -> node id
	routes []ccam.Route
	pos    func(ccam.NodeID) ccam.Point
	half   float64 // half the window side
}

// newMix draws the permutation and the routes for a seed. g must be
// the unmodified fixture map and ref the reference built from it.
func newMix(g *ccam.Network, seed int64, ref *reference) (*mix, error) {
	rng := rand.New(rand.NewSource(seed))
	ids := g.NodeIDs()
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	routes, err := ccam.RandomWalkRoutes(g, routeCount, routeNodes, rng)
	if err != nil {
		return nil, fmt.Errorf("routes: %w", err)
	}
	b := g.Bounds()
	area := b.Width() * b.Height() / float64(len(ids))
	return &mix{
		perm:   ids,
		routes: routes,
		pos:    ref.basePos,
		half:   math.Sqrt(windowNodes*area) / 2,
	}, nil
}

// opGen is one client's generator. Two generators with the same mix,
// seed and client index produce the same ops.
type opGen struct {
	m     *mix
	rng   *rand.Rand
	key   *rand.Zipf
	route *rand.Zipf
	// noQuery turns the stream's Query share into Finds: a reader that
	// runs beside a writer issues no statements (see workload.writer).
	noQuery bool
}

func newOpGen(m *mix, seed int64, client int) *opGen {
	rng := rand.New(rand.NewSource(seed*1000003 + int64(client) + 1))
	return &opGen{
		m:     m,
		rng:   rng,
		key:   rand.NewZipf(rng, zipfS, zipfKeyV, uint64(len(m.perm)-1)),
		route: rand.NewZipf(rng, zipfS, zipfRouteV, uint64(len(m.routes)-1)),
	}
}

func (g *opGen) nextKey() ccam.NodeID { return g.m.perm[g.key.Uint64()] }

func (g *opGen) next() op {
	switch r := g.rng.Intn(100); {
	case r < 45:
		return op{kind: opFind, id: g.nextKey()}
	case r < 70:
		return op{kind: opSucc, id: g.nextKey()}
	case r < 85:
		return op{kind: opRoute, route: int(g.route.Uint64())}
	case r < 95:
		c := g.m.pos(g.nextKey())
		h := g.m.half
		return op{kind: opRange, rect: ccam.NewRect(
			ccam.Point{X: c.X - h, Y: c.Y - h}, ccam.Point{X: c.X + h, Y: c.Y + h})}
	default:
		if g.noQuery {
			return op{kind: opFind, id: g.nextKey()}
		}
		return g.nextQuery()
	}
}

func (g *opGen) nextQuery() op {
	id := g.nextKey()
	return op{kind: opQuery, id: id, query: fmt.Sprintf("NEIGHBORS %d DEPTH 2", id)}
}
