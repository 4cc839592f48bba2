// Logistics: the aggregate network computations the paper names beyond
// route evaluation. A parcel company places depots on a road map and
// uses the CCAM store for three query families:
//
//   - location-allocation evaluation: which depot serves each
//     intersection, and how good is the depot configuration overall;
//   - shortest paths (Dijkstra and A*) for individual deliveries;
//   - tour evaluation: scoring a driver's closed delivery round.
//
// Each computation reads node records through the access method, so
// the printed data-page reads show what connectivity clustering buys.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"
	"sort"

	"ccam"
)

func main() {
	g, err := ccam.RoadMap(ccam.MinneapolisLikeOpts())
	if err != nil {
		log.Fatal(err)
	}
	store, err := ccam.Open(ccam.Options{PageSize: 2048, PoolPages: 8, Seed: 7})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.Build(g); err != nil {
		log.Fatal(err)
	}
	fmt.Printf("road map: %d intersections on %d pages (CRR %.3f)\n\n",
		store.Len(), store.NumPages(), store.CRR(g))

	// --- Location-allocation: compare two depot configurations.
	ctx := context.Background()
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(99))
	configs := map[string][]ccam.NodeID{
		"2 depots": {ids[len(ids)/4], ids[3*len(ids)/4]},
		"4 depots": {ids[len(ids)/8], ids[3*len(ids)/8], ids[5*len(ids)/8], ids[7*len(ids)/8]},
	}
	names := make([]string, 0, len(configs))
	for name := range configs {
		names = append(names, name)
	}
	sort.Strings(names)
	fmt.Println("location-allocation evaluation:")
	var depots []ccam.NodeID
	for _, name := range names {
		if err := store.ResetIO(); err != nil {
			log.Fatal(err)
		}
		allocs, total, worst, err := store.LocationAllocation(ctx, configs[name])
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  %-8s: %4d intersections served, mean cost %7.0f, worst %7.0f (%d page reads)\n",
			name, len(allocs), total/float64(len(allocs)), worst, store.IO().Reads)
		depots = configs[name]
	}
	fmt.Println()

	// --- Individual deliveries: Dijkstra vs A*.
	fmt.Println("deliveries (shortest paths from the first depot):")
	var dReads, aReads int64
	for i := 0; i < 5; i++ {
		dst := ids[rng.Intn(len(ids))]
		if err := store.ResetIO(); err != nil {
			log.Fatal(err)
		}
		p1, err := store.ShortestPath(ctx, depots[0], dst, 0)
		if err != nil {
			fmt.Printf("  depot -> %4d: unreachable\n", dst)
			continue
		}
		dReads += store.IO().Reads
		if err := store.ResetIO(); err != nil {
			log.Fatal(err)
		}
		// Edge costs are >= 0.8x straight-line distance by
		// construction, making the heuristic admissible.
		p2, err := store.ShortestPath(ctx, depots[0], dst, 0.8)
		if err != nil {
			log.Fatal(err)
		}
		aReads += store.IO().Reads
		fmt.Printf("  depot -> %4d: cost %7.0f over %2d hops (dijkstra expanded %3d, a* %3d)\n",
			dst, p1.Cost, len(p1.Nodes)-1, p1.Expanded, p2.Expanded)
	}
	fmt.Printf("  page reads: dijkstra %d, a* %d\n\n", dReads, aReads)

	// --- Tour evaluation: a driver's delivery round that returns to
	// the depot. Build it from consecutive shortest paths.
	stops := []ccam.NodeID{depots[0]}
	for i := 0; i < 3; i++ {
		stops = append(stops, ids[rng.Intn(len(ids))])
	}
	var tour ccam.Route
	ok := true
	for i := 0; i < len(stops); i++ {
		next := stops[(i+1)%len(stops)]
		leg, err := store.ShortestPath(ctx, stops[i], next, 0)
		if err != nil {
			ok = false
			break
		}
		// Append without repeating the junction node.
		if i == 0 {
			tour = append(tour, leg.Nodes...)
		} else {
			tour = append(tour, leg.Nodes[1:]...)
		}
	}
	if !ok {
		fmt.Println("tour: some stop was unreachable")
		return
	}
	tour = tour[:len(tour)-1] // EvaluateTour closes back to the start
	if err := store.ResetIO(); err != nil {
		log.Fatal(err)
	}
	agg, err := store.EvaluateTour(ctx, tour)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tour evaluation: %d intersections, total cost %.0f, dearest hop %.0f (%d page reads)\n",
		agg.Nodes, agg.TotalCost, agg.MaxCost, store.IO().Reads)
}
