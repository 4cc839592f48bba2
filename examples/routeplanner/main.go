// Routeplanner: the paper's motivating IVHS scenario. A commuter keeps
// a set of familiar routes between home and work; every morning the
// database holds fresh travel times, and the commuter's query evaluates
// all routes to pick today's best. The example builds a
// Minneapolis-scale road map, registers commuter routes, simulates
// rush-hour congestion by updating edge costs in place, and re-runs the
// route evaluation queries — reporting both the chosen route and the
// number of data pages each evaluation touched.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ccam"
)

func main() {
	g, err := ccam.RoadMap(ccam.MinneapolisLikeOpts())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road map: %d intersections, %d road segments\n", g.NumNodes(), g.NumEdges())

	// The commuter's familiar routes: random walks standing in for
	// alternate paths between home and work.
	rng := rand.New(rand.NewSource(2024))
	routes, err := ccam.RandomWalkRoutes(g, 4, 25, rng)
	if err != nil {
		log.Fatal(err)
	}

	// Weight the network by the commuter's access pattern so the
	// clustering optimizes for these queries (WCRR), then build.
	if _, err := ccam.ApplyRouteWeights(g, routes); err != nil {
		log.Fatal(err)
	}
	store, err := ccam.Open(ccam.Options{PageSize: 2048, PoolPages: 1, Seed: 9})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.Build(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("CCAM file: %d pages, WCRR = %.3f (1-page buffer, as in the paper)\n\n",
		store.NumPages(), store.WCRR(g))

	evaluate := func(label string) int {
		fmt.Println(label)
		best, bestCost := -1, 0.0
		totalReads := int64(0)
		for i, r := range routes {
			if err := store.ResetIO(); err != nil {
				log.Fatal(err)
			}
			agg, err := store.EvaluateRoute(context.Background(), r)
			if err != nil {
				log.Fatal(err)
			}
			reads := store.IO().Reads
			totalReads += reads
			fmt.Printf("  route %d: travel time %7.0f  (%2d intersections, %d page reads)\n",
				i+1, agg.TotalCost, agg.Nodes, reads)
			if best == -1 || agg.TotalCost < bestCost {
				best, bestCost = i, agg.TotalCost
			}
		}
		fmt.Printf("  -> best: route %d (%.0f); evaluation cost %d page reads total\n\n",
			best+1, bestCost, totalReads)
		return best
	}

	freeFlow := evaluate("Free-flow travel times:")

	// Rush hour: congestion slows every segment of the previously best
	// route by 3x, plus random jitter elsewhere. Travel-time updates
	// are in-place record mutations (SetEdgeCost) — the frequent-update
	// workload the paper's IVHS application describes.
	congested := routes[freeFlow]
	for i := 0; i+1 < len(congested); i++ {
		e, err := g.Edge(congested[i], congested[i+1])
		if err != nil {
			log.Fatal(err)
		}
		if err := store.Apply(context.Background(), new(ccam.Batch).SetEdgeCost(e.From, e.To, float32(e.Cost*3))); err != nil {
			log.Fatal(err)
		}
	}
	ids := g.NodeIDs()
	for n := 0; n < 200; n++ {
		from := ids[rng.Intn(len(ids))]
		succs := g.Successors(from)
		if len(succs) == 0 {
			continue
		}
		to := succs[rng.Intn(len(succs))]
		e, _ := g.Edge(from, to)
		if err := store.Apply(context.Background(), new(ccam.Batch).SetEdgeCost(from, to, float32(e.Cost*(1+rng.Float64())))); err != nil {
			log.Fatal(err)
		}
	}
	fmt.Printf("rush hour: route %d is congested (3x), 200 other segments updated\n\n", freeFlow+1)

	rushHour := evaluate("Rush-hour travel times:")
	if rushHour != freeFlow {
		fmt.Printf("the commuter switches from route %d to route %d today\n", freeFlow+1, rushHour+1)
	} else {
		fmt.Printf("route %d stays best despite congestion\n", freeFlow+1)
	}
}
