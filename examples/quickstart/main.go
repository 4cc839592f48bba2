// Quickstart: build a tiny road network, store it in a CCAM file, and
// run the paper's operations — Find, Get-successors, Get-A-successor,
// route evaluation — while watching the data-page I/O counters.
package main

import (
	"context"
	"fmt"
	"log"

	"ccam"
)

func main() {
	// A toy downtown: a 3x3 street grid with two-way streets. Costs are
	// travel times in seconds.
	net := ccam.NewNetwork()
	id := func(r, c int) ccam.NodeID { return ccam.NodeID(r*3 + c) }
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if err := net.AddNode(ccam.Node{
				ID:  id(r, c),
				Pos: ccam.Point{X: float64(c) * 100, Y: float64(r) * 100},
			}); err != nil {
				log.Fatal(err)
			}
		}
	}
	addStreet := func(a, b ccam.NodeID, secs float64) {
		must(net.AddEdge(ccam.Edge{From: a, To: b, Cost: secs, Weight: 1}))
		must(net.AddEdge(ccam.Edge{From: b, To: a, Cost: secs, Weight: 1}))
	}
	for r := 0; r < 3; r++ {
		for c := 0; c < 3; c++ {
			if c+1 < 3 {
				addStreet(id(r, c), id(r, c+1), 30+float64(r)*5)
			}
			if r+1 < 3 {
				addStreet(id(r, c), id(r+1, c), 45)
			}
		}
	}

	// Build the CCAM file: nodes are clustered into pages by
	// connectivity.
	store, err := ccam.Open(ccam.Options{PageSize: 512, Seed: 1})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	must(store.Build(net))
	fmt.Printf("stored %d nodes on %d pages, CRR = %.2f\n\n",
		store.Len(), store.NumPages(), store.CRR(net))

	// Queries are context-first: a context carries cancellation and
	// deadlines end to end (ccam-serve passes per-request contexts
	// through the same methods).
	ctx := context.Background()

	// Find: retrieve one node record.
	rec, err := store.Find(ctx, id(1, 1)) // the central intersection
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node %d at %v has %d outgoing streets and %d incoming\n",
		rec.ID, rec.Pos, len(rec.Succs), len(rec.Preds))

	// Get-successors: all intersections one hop away.
	succs, err := store.GetSuccessors(ctx, rec.ID)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Print("neighbors: ")
	for _, s := range succs {
		fmt.Printf("%d ", s.ID)
	}
	fmt.Println()

	// Route evaluation: compare a commuter's two routes across town.
	must(store.ResetIO())
	routeA := ccam.Route{id(0, 0), id(0, 1), id(0, 2), id(1, 2), id(2, 2)}
	routeB := ccam.Route{id(0, 0), id(1, 0), id(2, 0), id(2, 1), id(2, 2)}
	aggA, err := store.EvaluateRoute(ctx, routeA)
	if err != nil {
		log.Fatal(err)
	}
	aggB, err := store.EvaluateRoute(ctx, routeB)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("\nroute A: %.0f s over %d intersections\n", aggA.TotalCost, aggA.Nodes)
	fmt.Printf("route B: %.0f s over %d intersections\n", aggB.TotalCost, aggB.Nodes)
	if aggA.TotalCost < aggB.TotalCost {
		fmt.Println("-> take route A")
	} else {
		fmt.Println("-> take route B")
	}
	fmt.Printf("(both evaluations together cost %d data page reads)\n", store.IO().Reads)

	// Maintenance: a new cul-de-sac is built off the north-east corner.
	newID := ccam.NodeID(100)
	op := &ccam.InsertOp{
		Rec: &ccam.Record{
			ID:    newID,
			Pos:   ccam.Point{X: 250, Y: 250},
			Succs: []ccam.SuccEntry{{To: id(2, 2), Cost: 20}},
			Preds: []ccam.NodeID{id(2, 2)},
		},
		PredCosts: []float32{20},
	}
	must(store.Apply(ctx, new(ccam.Batch).Insert(op, ccam.SecondOrder)))
	// Mirror the change in the in-memory network so CRR sees it too.
	must(net.AddNode(ccam.Node{ID: newID, Pos: ccam.Point{X: 250, Y: 250}}))
	addStreet(newID, id(2, 2), 20)
	must(store.Checkpoint())
	fmt.Printf("\nafter construction: %d nodes, CRR = %.2f\n", store.Len(), store.CRR(net))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
