package topo

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
)

// Tests of the PAG summary on a DFS-AM file: its writers run on the same
// record primitives as CCAM's, without a WAL or a reorganizer, and the
// summary must follow them exactly.

type edgeKey [2]graph.NodeID

// pagSchedule drives one DFS-AM file through a seeded schedule of all
// five mutation kinds, tracking the logical contents (successor costs
// per node) and the access weights that are not 1.
type pagSchedule struct {
	rng     *rand.Rand
	m       *Method
	model   map[graph.NodeID]map[graph.NodeID]float32
	weights map[edgeKey]float64
	nextID  graph.NodeID
}

// ids returns the stored nodes in ascending order, so picks are seeded.
func (p *pagSchedule) ids() []graph.NodeID {
	ids := make([]graph.NodeID, 0, len(p.model))
	for id := range p.model {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

// succOf picks a stored successor of from.
func (p *pagSchedule) succOf(from graph.NodeID) (graph.NodeID, bool) {
	tos := make([]graph.NodeID, 0, len(p.model[from]))
	for to := range p.model[from] {
		tos = append(tos, to)
	}
	if len(tos) == 0 {
		return 0, false
	}
	sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
	return tos[p.rng.Intn(len(tos))], true
}

// op applies one valid mutation and settles it into the summary, as the
// store does at the end of every mutation. grow tilts the choice toward
// inserts (pages overflow and split), otherwise toward deletes (pages
// empty and are freed). It reports whether it changed anything.
func (p *pagSchedule) op(grow bool) (bool, error) {
	ids := p.ids()
	pick := func() graph.NodeID { return ids[p.rng.Intn(len(ids))] }
	f := p.m.File()
	k := p.rng.Intn(10)
	if !grow {
		k = 9 - k
	}
	var err error
	switch {
	case k < 4: // insert a node wired into one or two existing ones
		id := p.nextID
		p.nextID++
		rec := &netfile.Record{ID: id, Pos: geom.Point{X: float64(p.rng.Intn(100)), Y: float64(p.rng.Intn(100))},
			Attrs: make([]byte, p.rng.Intn(48))}
		op := &netfile.InsertOp{Rec: rec}
		succs := map[graph.NodeID]float32{}
		for i, deg := 0, 1+p.rng.Intn(2); i < deg; i++ {
			if to := pick(); !rec.HasSucc(to) {
				cost := float32(1 + p.rng.Intn(50))
				rec.Succs = append(rec.Succs, netfile.SuccEntry{To: to, Cost: cost})
				succs[to] = cost
			}
		}
		from := pick()
		predCost := float32(1 + p.rng.Intn(50))
		rec.Preds = append(rec.Preds, from)
		op.PredCosts = append(op.PredCosts, predCost)
		if err = p.m.Insert(op, netfile.FirstOrder); err == nil {
			p.model[id] = succs
			p.model[from][id] = predCost
		}
	case k < 6: // insert an edge
		from, to := pick(), pick()
		if _, dup := p.model[from][to]; from == to || dup {
			return false, nil
		}
		cost := float32(1 + p.rng.Intn(100))
		if err = p.m.InsertEdge(from, to, cost, netfile.FirstOrder); err == nil {
			p.model[from][to] = cost
		}
	case k < 7: // re-cost an edge in place
		from := pick()
		to, ok := p.succOf(from)
		if !ok {
			return false, nil
		}
		cost := float32(1 + p.rng.Intn(100))
		if err = f.SetEdgeCost(from, to, cost); err == nil {
			p.model[from][to] = cost
		}
	case k < 8: // delete an edge
		from := pick()
		to, ok := p.succOf(from)
		if !ok {
			return false, nil
		}
		if err = p.m.DeleteEdge(from, to, netfile.FirstOrder); err == nil {
			delete(p.model[from], to)
			delete(p.weights, edgeKey{from, to})
		}
	default: // delete a node
		if len(ids) < 16 {
			return false, nil
		}
		id := pick()
		if err = p.m.Delete(id, netfile.FirstOrder); err == nil {
			delete(p.model, id)
			for from, succs := range p.model {
				delete(succs, id)
				delete(p.weights, edgeKey{from, id})
			}
			for e := range p.weights {
				if e[0] == id {
					delete(p.weights, e)
				}
			}
		}
	}
	if err != nil {
		return false, err
	}
	f.SettlePAG()
	return true, nil
}

// checkPAG checks f (File.Check compares the summary, both indexes and
// the lists with a scan of the pages), the records against model, and
// the summary's WCRR against graph.WCRR on the records at the test's
// access weights (weights holds every edge that does not weigh 1).
func checkPAG(t *testing.T, f *netfile.File, model map[graph.NodeID]map[graph.NodeID]float32, weights map[edgeKey]float64) {
	t.Helper()
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	ref := graph.NewNetwork()
	var recs []*netfile.Record
	if err := f.Scan(func(rec *netfile.Record) bool {
		recs = append(recs, rec)
		if err := ref.AddNode(graph.Node{ID: rec.ID, Pos: rec.Pos}); err != nil {
			t.Fatal(err)
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if err := diffModel(model, recs); err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		for _, sc := range rec.Succs {
			w, ok := weights[edgeKey{rec.ID, sc.To}]
			if !ok {
				w = 1
			}
			if err := ref.AddEdge(graph.Edge{From: rec.ID, To: sc.To, Cost: float64(sc.Cost), Weight: w}); err != nil {
				t.Fatal(err)
			}
		}
	}
	if got, want := f.PAG().Stats().WCRR(), graph.WCRR(ref, f.Placement()); math.Abs(got-want) > 1e-9 {
		t.Fatalf("summary WCRR %v, graph.WCRR %v", got, want)
	}
}

// diffModel fails unless the scanned records hold exactly the model's
// nodes and successor costs.
func diffModel(model map[graph.NodeID]map[graph.NodeID]float32, recs []*netfile.Record) error {
	if len(recs) != len(model) {
		return fmt.Errorf("file holds %d nodes, model %d", len(recs), len(model))
	}
	for _, rec := range recs {
		want, ok := model[rec.ID]
		if !ok {
			return fmt.Errorf("phantom node %d", rec.ID)
		}
		if len(rec.Succs) != len(want) {
			return fmt.Errorf("node %d: %d successors, want %d", rec.ID, len(rec.Succs), len(want))
		}
		for _, sc := range rec.Succs {
			if c, ok := want[sc.To]; !ok || c != sc.Cost {
				return fmt.Errorf("edge %d->%d cost %g, want %g (%v)", rec.ID, sc.To, sc.Cost, c, ok)
			}
		}
	}
	return nil
}

// TestPAGSummaryMatchesScan runs seeded schedules of Insert, Delete,
// InsertEdge, DeleteEdge and File.SetEdgeCost on a DFS-AM file — growing
// it until pages split, then shrinking it until pages empty — and checks
// the summary against a scan of the file after every step.
func TestPAGSummaryMatchesScan(t *testing.T) {
	for _, seed := range []int64{5, 6} {
		t.Run(fmt.Sprintf("seed=%d", seed), func(t *testing.T) {
			opts := graph.MinneapolisLikeOpts()
			opts.Rows, opts.Cols = 8, 8
			g, err := graph.RoadMap(opts)
			if err != nil {
				t.Fatal(err)
			}
			rng := rand.New(rand.NewSource(seed))
			routes, err := graph.RandomWalkRoutes(g, 64, 8, rng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := graph.ApplyRouteWeights(g, routes); err != nil {
				t.Fatal(err)
			}
			m, err := New(Config{Kind: DFS, PageSize: 512, PoolPages: 8, Seed: seed})
			if err != nil {
				t.Fatal(err)
			}
			if err := m.Build(g); err != nil {
				t.Fatal(err)
			}
			p := &pagSchedule{
				rng: rng, m: m, nextID: 1 << 20,
				model: map[graph.NodeID]map[graph.NodeID]float32{}, weights: map[edgeKey]float64{},
			}
			for _, id := range g.NodeIDs() {
				p.model[id] = map[graph.NodeID]float32{}
			}
			for _, e := range g.Edges() {
				p.model[e.From][e.To] = float32(e.Cost)
				if e.Weight != 1 {
					p.weights[edgeKey{e.From, e.To}] = e.Weight
				}
			}
			f := m.File()
			checkPAG(t, f, p.model, p.weights)
			minPages, maxPages := f.NumPages(), f.NumPages()
			for step := 0; step < 60; step++ {
				for n, want := 0, 4+rng.Intn(20); n < want; {
					done, err := p.op(step < 30)
					if err != nil {
						t.Fatalf("step %d: %v", step, err)
					}
					if done {
						n++
					}
				}
				checkPAG(t, f, p.model, p.weights)
				if n := f.NumPages(); n < minPages {
					minPages = n
				} else if n > maxPages {
					maxPages = n
				}
			}
			if maxPages-minPages < 2 {
				t.Fatalf("schedule never split or freed pages (%d..%d)", minPages, maxPages)
			}
		})
	}
}
