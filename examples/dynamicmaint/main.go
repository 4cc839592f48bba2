// Dynamicmaint: a transportation department extends the road network —
// a new subdivision of streets is built onto an existing map. The
// example compares the paper's reorganization policies (first-order,
// second-order, higher-order) while the same construction sequence is
// applied, reporting the I/O paid per update and the clustering quality
// (CRR) that remains afterwards — the trade-off of the paper's
// Figure 7.
package main

import (
	"context"
	"fmt"
	"log"
	"math/rand"

	"ccam"
)

func main() {
	for _, policy := range []ccam.Policy{ccam.FirstOrder, ccam.SecondOrder, ccam.HigherOrder} {
		run(policy)
	}
}

func run(policy ccam.Policy) {
	// The existing city.
	opts := ccam.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 24, 24
	g, err := ccam.RoadMap(opts)
	if err != nil {
		log.Fatal(err)
	}
	store, err := ccam.Open(ccam.Options{PageSize: 1024, Seed: 3})
	if err != nil {
		log.Fatal(err)
	}
	defer store.Close()
	if err := store.Build(g); err != nil {
		log.Fatal(err)
	}
	startCRR := store.CRR(g)

	// The new subdivision: a chain of cul-de-sacs attached to the
	// eastern edge of the map, built street by street.
	bounds := g.Bounds()
	rng := rand.New(rand.NewSource(11))
	ids := g.NodeIDs()
	anchor := ids[len(ids)-1] // an existing intersection to connect to
	nextID := ccam.NodeID(1 << 20)

	var totalIO int64
	updates := 0
	prev := anchor
	for street := 0; street < 60; street++ {
		pos := ccam.Point{
			X: bounds.Max.X + 100 + float64(street%10)*80,
			Y: bounds.Min.Y + float64(street/10)*700 + rng.Float64()*200,
		}
		cost := float32(60 + rng.Float64()*60)
		op := &ccam.InsertOp{
			Rec: &ccam.Record{
				ID:    nextID,
				Pos:   pos,
				Succs: []ccam.SuccEntry{{To: prev, Cost: cost}},
				Preds: []ccam.NodeID{prev},
			},
			PredCosts: []float32{cost},
		}
		if err := store.ResetIO(); err != nil {
			log.Fatal(err)
		}
		if err := store.Apply(context.Background(), new(ccam.Batch).Insert(op, policy)); err != nil {
			log.Fatal(err)
		}
		io := store.IO()
		totalIO += io.Reads + io.Writes
		updates++

		// Mirror into the in-memory network for CRR measurement.
		must(g.AddNode(ccam.Node{ID: nextID, Pos: pos}))
		must(g.AddEdge(ccam.Edge{From: nextID, To: prev, Cost: float64(cost), Weight: 1}))
		must(g.AddEdge(ccam.Edge{From: prev, To: nextID, Cost: float64(cost), Weight: 1}))

		// Every few streets the chain reattaches to the city so the
		// subdivision has multiple entrances.
		if street%10 == 9 {
			prev = ids[rng.Intn(len(ids))]
		} else {
			prev = nextID
		}
		nextID++
	}

	// A couple of streets are later closed again (roadworks).
	closed := 0
	for id := ccam.NodeID(1 << 20); closed < 5; id++ {
		stored, err := store.Has(context.Background(), id)
		if err != nil {
			log.Fatal(err)
		}
		if !stored {
			continue
		}
		if err := store.ResetIO(); err != nil {
			log.Fatal(err)
		}
		if err := store.Apply(context.Background(), new(ccam.Batch).Delete(id, policy)); err != nil {
			log.Fatal(err)
		}
		io := store.IO()
		totalIO += io.Reads + io.Writes
		updates++
		must(g.RemoveNode(id))
		closed++
	}

	fmt.Printf("%-13s: %2d updates, %5.2f page accesses/update, CRR %.3f -> %.3f\n",
		policy, updates, float64(totalIO)/float64(updates), startCRR, store.CRR(g))
}

func must(err error) {
	if err != nil {
		log.Fatal(err)
	}
}
