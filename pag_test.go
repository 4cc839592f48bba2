package ccam

// Tests of the PAG summary as the store's one account of topology: a
// reference rebuilt from a scan of the file must agree with everything
// the summary's readers see — tallies, page pairs, CRR/WCRR, planner
// statistics — after every step of a randomized schedule, and the
// gauges must follow one weight rule across restarts.

import (
	"context"
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"sort"
	"testing"

	"ccam/internal/graph"
)

type edgeID [2]NodeID

// checkPinnedIndex fails unless snap, pinned when the pages held
// before, still answers like before now that they hold after: each node
// of before on its page, and none that only after stores.
func checkPinnedIndex(t *testing.T, snap *Snapshot, before, after Placement) {
	t.Helper()
	n := 0
	if err := snap.Scan(func(*Record) bool { n++; return true }); err != nil {
		t.Fatal(err)
	}
	if n != len(before) {
		t.Fatalf("pinned view scans %d nodes, the pages held %d", n, len(before))
	}
	for id, pid := range before {
		if got, ok := snap.PAG().PageOf(id); !ok || got != pid || !snap.Has(id) {
			t.Fatalf("pinned view: node %d: index resolves page %d (%v, has %v), the pages said %d", id, got, ok, snap.Has(id), pid)
		}
	}
	for id := range after {
		if _, stored := before[id]; !stored {
			if pid, ok := snap.PAG().PageOf(id); ok || snap.Has(id) {
				t.Fatalf("pinned view: node %d was on no page, index resolves page %d (%v, has %v)", id, pid, ok, snap.Has(id))
			}
		}
	}
}

// checkPAG runs Store.Verify — the summary, both indexes and the lists
// against a scan of the pages, and the gauges against the summary — and
// then checks what Verify has no reference for: WCRR against graph.WCRR
// at the test's access weights (weights holds every edge that does not
// weigh 1), and the planner's statistics against a scan. It returns the
// placement, which Verify has found to be the pages'. The caller must
// have the store to itself.
func checkPAG(t *testing.T, s *Store, weights map[edgeID]float64) Placement {
	t.Helper()
	if err := s.Verify(); err != nil {
		t.Fatal(err)
	}
	f := s.m.File()
	place := f.Placement()
	ref, lists, some := NewNetwork(), 0, NodeID(0)
	for id := range place {
		if err := ref.AddNode(Node{ID: id}); err != nil {
			t.Fatal(err)
		}
		some = id
	}
	if err := f.Scan(func(rec *Record) bool {
		lists += len(rec.Succs) + len(rec.Preds)
		for _, sc := range rec.Succs {
			w, ok := weights[edgeID{rec.ID, sc.To}]
			if !ok {
				w = 1
			}
			if err := ref.AddEdge(Edge{From: rec.ID, To: sc.To, Weight: w}); err != nil {
				t.Fatal(err)
			}
		}
		return true
	}); err != nil {
		t.Fatal(err)
	}
	if got, want := f.PAG().Stats().WCRR(), graph.WCRR(ref, place); math.Abs(got-want) > 1e-9 {
		t.Fatalf("summary WCRR %v, graph.WCRR %v", got, want)
	}
	if len(place) == 0 {
		return place
	}
	res, err := s.Query(context.Background(), fmt.Sprintf("EXPLAIN FIND %d", some))
	if err != nil {
		t.Fatal(err)
	}
	n, ps := float64(len(place)), res.Plan.Stats
	for _, c := range []struct {
		name      string
		got, want float64
	}{
		{"alpha", ps.Alpha, graph.CRR(ref, place)},
		{"avg_a", ps.AvgA, float64(ref.NumEdges()) / n},
		{"lambda", ps.Lambda, float64(lists) / n},
		{"gamma", ps.Gamma, n / float64(f.NumPages())},
		{"nodes", float64(ps.Nodes), n},
		{"pages", float64(ps.Pages), float64(f.NumPages())},
	} {
		if math.Abs(c.got-c.want) > 1e-12 {
			t.Fatalf("planner %s = %v, scan gives %v", c.name, c.got, c.want)
		}
	}
	return place
}

// pagSchedule drives one store through a seeded schedule, tracking the
// logical contents (for valid ops) and the access weights (for WCRR).
type pagSchedule struct {
	t       *testing.T
	rng     *rand.Rand
	opts    Options
	s       *Store
	model   walModel
	weights map[edgeID]float64
	nextID  NodeID
}

// batch builds a batch of n ops of all five kinds under random
// policies; grow tilts it toward inserts (pages overflow and split),
// otherwise toward deletes (pages shrink and merge).
func (p *pagSchedule) batch(n int, grow bool) *Batch {
	policies := []Policy{FirstOrder, SecondOrder, HigherOrder, Lazy}
	b := new(Batch)
	for b.Len() < n {
		ids := make([]NodeID, 0, len(p.model))
		for id := range p.model {
			ids = append(ids, id)
		}
		sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
		pick := func() NodeID { return ids[p.rng.Intn(len(ids))] }
		succOf := func(from NodeID) (NodeID, bool) {
			tos := make([]NodeID, 0, len(p.model[from]))
			for to := range p.model[from] {
				tos = append(tos, to)
			}
			if len(tos) == 0 {
				return 0, false
			}
			sort.Slice(tos, func(i, j int) bool { return tos[i] < tos[j] })
			return tos[p.rng.Intn(len(tos))], true
		}
		policy := policies[p.rng.Intn(len(policies))]
		k := p.rng.Intn(10)
		if !grow {
			k = 9 - k
		}
		switch {
		case k < 4: // insert a node wired into two to four existing ones
			id := p.nextID
			p.nextID++
			rec := &Record{ID: id, Pos: Point{X: float64(p.rng.Intn(100)), Y: float64(p.rng.Intn(100))},
				Attrs: make([]byte, p.rng.Intn(48))}
			op := &InsertOp{Rec: rec}
			p.model[id] = map[NodeID]float32{}
			for i, deg := 0, 1+p.rng.Intn(2); i < deg; i++ {
				if to := pick(); to != id && !rec.HasSucc(to) {
					cost := float32(1 + p.rng.Intn(50))
					rec.Succs = append(rec.Succs, SuccEntry{To: to, Cost: cost})
					p.model[id][to] = cost
				}
				if from := pick(); from != id && p.model[from][id] == 0 {
					cost := float32(1 + p.rng.Intn(50))
					rec.Preds = append(rec.Preds, from)
					op.PredCosts = append(op.PredCosts, cost)
					p.model[from][id] = cost
				}
			}
			b.Insert(op, policy)
		case k < 6: // insert an edge
			from, to := pick(), pick()
			if _, dup := p.model[from][to]; from == to || dup {
				continue
			}
			cost := float32(1 + p.rng.Intn(100))
			p.model[from][to] = cost
			b.InsertEdge(from, to, cost, policy)
		case k < 7: // re-cost an edge
			from := pick()
			to, ok := succOf(from)
			if !ok {
				continue
			}
			cost := float32(1 + p.rng.Intn(100))
			p.model[from][to] = cost
			b.SetEdgeCost(from, to, cost)
		case k < 8: // delete an edge
			from := pick()
			to, ok := succOf(from)
			if !ok {
				continue
			}
			delete(p.model[from], to)
			delete(p.weights, edgeID{from, to})
			b.DeleteEdge(from, to, policy)
		default: // delete a node
			if len(ids) < 16 {
				continue
			}
			id := pick()
			delete(p.model, id)
			for from, succs := range p.model {
				delete(succs, id)
				delete(p.weights, edgeID{from, id})
			}
			for e := range p.weights {
				if e[0] == id {
					delete(p.weights, e)
				}
			}
			b.Delete(id, policy)
		}
	}
	return b
}

func (p *pagSchedule) reopen(pool int) {
	p.t.Helper()
	if err := p.s.Close(); err != nil {
		p.t.Fatal(err)
	}
	opts := p.opts
	opts.PoolPages = pool
	s, err := OpenPath(p.opts.Path, opts)
	if err != nil {
		p.t.Fatal(err)
	}
	p.s = s
	p.tuneReorg()
	// Records carry no access weights: after a reopen every edge weighs 1.
	p.weights = map[edgeID]float64{}
}

// tuneReorg makes any decay trigger a round of at most 8 pages.
func (p *pagSchedule) tuneReorg() {
	p.s.reorg.drop, p.s.reorg.maxPages = 1e-9, 8
}

// TestPAGSummaryMatchesScan runs seeded schedules — Apply batches of all
// five op kinds that overflow, shrink, split and merge pages under all
// four policies, reorganizer rounds, checkpoints, close/reopen at pool
// sizes 1, 8 and 4096 — and checks the summary against a scan of the
// file after every step, and the node index with it: at the live end,
// and on a view pinned before the step, which must go on answering like
// the scan made before it. Both creates run: CCAM-S and CCAM-D (whose
// build stores lists that name nodes not stored yet). The baselines'
// writers have their own schedule in internal/topo.
func TestPAGSummaryMatchesScan(t *testing.T) {
	for _, sc := range []struct {
		name    string
		seed    int64
		dynamic bool
	}{
		{name: "seed=1", seed: 1}, {name: "seed=2", seed: 2}, {name: "seed=3", seed: 3},
		{name: "ccam-d", seed: 4, dynamic: true},
	} {
		seed := sc.seed
		t.Run(sc.name, func(t *testing.T) {
			g := smallTestMap(t)
			rng := rand.New(rand.NewSource(seed))
			routes, err := RandomWalkRoutes(g, 64, 8, rng)
			if err != nil {
				t.Fatal(err)
			}
			if _, err := ApplyRouteWeights(g, routes); err != nil {
				t.Fatal(err)
			}
			pools := []int{1, 8, 4096}
			p := &pagSchedule{
				t: t, rng: rng, nextID: 1 << 20,
				opts: Options{
					PageSize: 512, PoolPages: pools[int(seed)%3], Seed: seed, Dynamic: sc.dynamic,
					Path: filepath.Join(t.TempDir(), "pag.ccam"), WAL: true, SyncPolicy: SyncNone,
					Metrics: seed%2 == 1, CheckpointBytes: 16 << 10,
				},
				model: modelFromNetwork(g), weights: map[edgeID]float64{},
			}
			for _, e := range g.Edges() {
				if e.Weight != 1 {
					p.weights[edgeID{e.From, e.To}] = e.Weight
				}
			}
			p.s, err = Open(p.opts)
			if err != nil {
				t.Fatal(err)
			}
			p.tuneReorg()
			defer func() { p.s.Close() }()
			if err := p.s.Build(g); err != nil {
				t.Fatal(err)
			}
			place := checkPAG(t, p.s, p.weights)

			minPages, maxPages := p.s.NumPages(), p.s.NumPages()
			for step := 0; step < 60; step++ {
				snap, err := p.s.Snapshot()
				if err != nil {
					t.Fatal(err)
				}
				k := rng.Intn(12)
				switch {
				case k < 8:
					// Grow for the first half of the schedule, shrink after.
					if err := p.s.Apply(context.Background(), p.batch(4+rng.Intn(20), step < 30)); err != nil {
						t.Fatalf("step %d: apply: %v", step, err)
					}
				case k < 10:
					if err := p.s.Poke(); err != nil {
						t.Fatalf("step %d: poke: %v", step, err)
					}
				case k < 11:
					if err := p.s.Checkpoint(); err != nil {
						t.Fatalf("step %d: checkpoint: %v", step, err)
					}
				default:
					snap.Close() // a view does not outlive its store
					p.reopen(pools[rng.Intn(len(pools))])
				}
				before := place
				place = checkPAG(t, p.s, p.weights)
				if k < 11 {
					checkPinnedIndex(t, snap, before, place)
					snap.Close()
				}
				if err := diffModels(p.model, storeModel(t, p.s)); err != nil {
					t.Fatalf("step %d: %v", step, err)
				}
				if n := p.s.NumPages(); n < minPages {
					minPages = n
				} else if n > maxPages {
					maxPages = n
				}
			}
			if maxPages-minPages < 2 {
				t.Fatalf("schedule never split or merged pages (%d..%d)", minPages, maxPages)
			}
		})
	}
}

// TestWCRRGaugeFollowsOneWeightRule pins the weight rule of the ccam_wcrr
// gauge against graph.WCRR on a reference network: the network's access
// weights at Build, 1 for every edge added later (whatever its cost), 1
// for every edge after a reopen.
func TestWCRRGaugeFollowsOneWeightRule(t *testing.T) {
	g := smallTestMap(t)
	routes, err := RandomWalkRoutes(g, 64, 8, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ApplyRouteWeights(g, routes); err != nil {
		t.Fatal(err)
	}
	opts := Options{PageSize: 1024, Seed: 3, Metrics: true, Path: filepath.Join(t.TempDir(), "wcrr.ccam")}
	s, err := Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	defer func() { s.Close() }()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	check := func(when string) {
		t.Helper()
		if got, want := s.Metrics().Gauge("ccam_wcrr").Value(), s.WCRR(g); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%s: ccam_wcrr = %v, graph.WCRR on the reference = %v", when, got, want)
		}
	}
	check("after Build")

	ids := g.NodeIDs()
	const x = NodeID(1 << 20)
	if err := g.AddNode(Node{ID: x, Pos: Point{X: 1, Y: 1}}); err != nil {
		t.Fatal(err)
	}
	rec := &Record{ID: x, Pos: Point{X: 1, Y: 1}, Succs: []SuccEntry{{To: ids[0], Cost: 40}}, Preds: []NodeID{ids[1]}}
	if err := s.Apply(context.Background(), new(Batch).Insert(&InsertOp{Rec: rec, PredCosts: []float32{70}}, SecondOrder)); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(Edge{From: x, To: ids[0], Cost: 40, Weight: 1})
	g.AddEdge(Edge{From: ids[1], To: x, Cost: 70, Weight: 1})
	check("after Insert")

	from, to := ids[2], ids[len(ids)-1]
	if err := s.Apply(context.Background(), new(Batch).InsertEdge(from, to, 9, SecondOrder)); err != nil {
		t.Fatal(err)
	}
	g.AddEdge(Edge{From: from, To: to, Cost: 9, Weight: 1})
	check("after InsertEdge")

	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if s, err = OpenPath(opts.Path, opts); err != nil {
		t.Fatal(err)
	}
	graph.UniformWeights(g)
	check("after reopen")
}

// TestPrefetchHintsSurviveSplit grows one page until it splits and is
// rewritten: its PAG neighbors (once the prefetcher's hints, hence the
// name) must still be there, live, and ranked as a scan ranks them
// (checkPAG compares them for every page).
func TestPrefetchHintsSurviveSplit(t *testing.T) {
	s, g := builtStore(t, Options{PageSize: 1024, Seed: 9})
	f := s.m.File()
	ids := g.NodeIDs()
	anchor := ids[len(ids)/2]
	pid, err := f.PageOf(anchor)
	if err != nil {
		t.Fatal(err)
	}
	pages := s.NumPages()
	for i := 0; s.NumPages() == pages; i++ {
		if i == len(ids) {
			t.Fatal("page never split")
		}
		if ids[i] == anchor {
			continue
		}
		if err := s.Apply(context.Background(), new(Batch).InsertEdge(anchor, ids[i], 1, FirstOrder)); err != nil {
			t.Fatal(err)
		}
	}
	if len(f.PAG().Neighbors(pid)) == 0 {
		t.Fatalf("page %d split and lost its PAG neighbors", pid)
	}
	checkPAG(t, s, nil)
}
