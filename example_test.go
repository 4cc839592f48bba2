package ccam_test

import (
	"context"
	"fmt"
	"log"

	"ccam"
)

// Example builds a small network, stores it connectivity-clustered, and
// runs the paper's route evaluation query.
func Example() {
	net := ccam.NewNetwork()
	for i, pos := range []ccam.Point{{X: 0, Y: 0}, {X: 100, Y: 0}, {X: 200, Y: 0}} {
		if err := net.AddNode(ccam.Node{ID: ccam.NodeID(i + 1), Pos: pos}); err != nil {
			log.Fatal(err)
		}
	}
	net.AddEdge(ccam.Edge{From: 1, To: 2, Cost: 30, Weight: 1})
	net.AddEdge(ccam.Edge{From: 2, To: 3, Cost: 45, Weight: 1})

	store, err := ccam.Open(ccam.Options{PageSize: 512})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.Build(net); err != nil {
		log.Fatal(err)
	}

	agg, err := store.EvaluateRoute(context.Background(), ccam.Route{1, 2, 3})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("route over %d nodes costs %.0f\n", agg.Nodes, agg.TotalCost)
	// Output: route over 3 nodes costs 75
}

// ExampleStore_GetSuccessors shows the adjacency retrieval operation
// behind graph searches.
func ExampleStore_GetSuccessors() {
	net := ccam.NewNetwork()
	for i := 1; i <= 4; i++ {
		net.AddNode(ccam.Node{ID: ccam.NodeID(i)})
	}
	net.AddEdge(ccam.Edge{From: 1, To: 2, Cost: 1, Weight: 1})
	net.AddEdge(ccam.Edge{From: 1, To: 3, Cost: 2, Weight: 1})
	net.AddEdge(ccam.Edge{From: 4, To: 1, Cost: 3, Weight: 1})

	store, err := ccam.Open(ccam.Options{PageSize: 512})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.Build(net); err != nil {
		log.Fatal(err)
	}

	succs, err := store.GetSuccessors(context.Background(), 1)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("node 1 has %d successors\n", len(succs))
	// Output: node 1 has 2 successors
}

// ExampleStore_EvaluateRouteUnit aggregates over a named collection of
// arcs — the paper's bus-route scenario.
func ExampleStore_EvaluateRouteUnit() {
	net := ccam.NewNetwork()
	for i := 1; i <= 4; i++ {
		net.AddNode(ccam.Node{ID: ccam.NodeID(i)})
	}
	// A bus route along 1 -> 2 -> 3 -> 4.
	net.AddEdge(ccam.Edge{From: 1, To: 2, Cost: 10, Weight: 1})
	net.AddEdge(ccam.Edge{From: 2, To: 3, Cost: 20, Weight: 1})
	net.AddEdge(ccam.Edge{From: 3, To: 4, Cost: 30, Weight: 1})

	store, err := ccam.Open(ccam.Options{PageSize: 512})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.Build(net); err != nil {
		log.Fatal(err)
	}

	agg, err := store.EvaluateRouteUnit(context.Background(), "bus-9", [][2]ccam.NodeID{{1, 2}, {2, 3}, {3, 4}})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d segments, total %.0f\n", agg.Name, agg.Edges, agg.TotalCost)
	// Output: bus-9: 3 segments, total 60
}
