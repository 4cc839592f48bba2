package ccam

import (
	"fmt"
	"maps"
	"math/rand"
	"slices"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/netfile"
	"ccam/internal/partition"
	"ccam/internal/storage"
)

func roadMap(t *testing.T) *graph.Network {
	t.Helper()
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func build(t *testing.T, g *graph.Network, cfg Config) *Method {
	t.Helper()
	if cfg.File.PageSize == 0 {
		cfg.File.PageSize = 1024
	}
	if cfg.File.PoolPages == 0 {
		cfg.File.PoolPages = 64
	}
	m, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := m.Build(g); err != nil {
		t.Fatal(err)
	}
	return m
}

// checkConsistency checks the file (File.Check) and that it holds the
// network exactly: each of its nodes with its successors, and no other
// node. Check's agreeing lists make the predecessors follow.
func checkConsistency(t *testing.T, m *Method, g *graph.Network) {
	t.Helper()
	f := m.File()
	for _, id := range g.NodeIDs() {
		rec, err := f.Find(id)
		if err != nil {
			t.Fatalf("Find(%d): %v", id, err)
		}
		wantSucc := g.Successors(id)
		if len(rec.Succs) != len(wantSucc) {
			t.Fatalf("node %d: file has %d succs, network %d", id, len(rec.Succs), len(wantSucc))
		}
		succSet := map[graph.NodeID]bool{}
		for _, s := range rec.Succs {
			succSet[s.To] = true
		}
		for _, s := range wantSucc {
			if !succSet[s] {
				t.Fatalf("node %d: succ %d missing from record", id, s)
			}
		}
	}
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	if err := graph.ValidatePlacement(g, f.Placement()); err != nil {
		t.Fatal(err)
	}
}

func TestStaticBuildCRR(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 1})
	checkConsistency(t, m, g)
	crr := graph.CRR(g, m.File().Placement())
	if crr < 0.6 {
		t.Fatalf("CCAM-S CRR = %f, expected > 0.6 at 1k pages", crr)
	}
	if m.Name() != "ccam-s" {
		t.Fatalf("Name = %q", m.Name())
	}
	t.Logf("CCAM-S: CRR=%.4f pages=%d", crr, m.File().NumPages())
}

func TestDynamicBuildCRR(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 1, Dynamic: true})
	checkConsistency(t, m, g)
	crr := graph.CRR(g, m.File().Placement())
	if crr < 0.45 {
		t.Fatalf("CCAM-D CRR = %f, expected > 0.45 at 1k pages", crr)
	}
	if m.Name() != "ccam-d" {
		t.Fatalf("Name = %q", m.Name())
	}
	t.Logf("CCAM-D: CRR=%.4f pages=%d", crr, m.File().NumPages())
}

func TestStaticBeatsDynamic(t *testing.T) {
	g := roadMap(t)
	s := build(t, g, Config{Seed: 1})
	d := build(t, g, Config{Seed: 1, Dynamic: true})
	sc, dc := graph.CRR(g, s.File().Placement()), graph.CRR(g, d.File().Placement())
	if sc <= dc*0.95 {
		t.Fatalf("CCAM-S (%.4f) should not lose clearly to CCAM-D (%.4f)", sc, dc)
	}
}

func TestDeleteThenReinsertAllPolicies(t *testing.T) {
	for _, policy := range []netfile.Policy{netfile.FirstOrder, netfile.SecondOrder, netfile.HigherOrder} {
		t.Run(policy.String(), func(t *testing.T) {
			g := roadMap(t)
			m := build(t, g, Config{Seed: 2})
			ids := g.NodeIDs()
			rng := rand.New(rand.NewSource(3))
			rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
			victims := ids[:40]

			// Delete from both file and reference network.
			ops := map[graph.NodeID]*netfile.InsertOp{}
			for _, id := range victims {
				op, err := netfile.InsertOpFromNode(g, id)
				if err != nil {
					t.Fatal(err)
				}
				ops[id] = op
			}
			for _, id := range victims {
				if err := m.Delete(id, policy); err != nil {
					t.Fatalf("Delete(%d, %s): %v", id, policy, err)
				}
				if err := g.RemoveNode(id); err != nil {
					t.Fatal(err)
				}
			}
			checkConsistency(t, m, g)

			// Re-insert, restoring edges that still have both endpoints.
			for _, id := range victims {
				op := ops[id]
				rec := op.Rec.Clone()
				var succs []netfile.SuccEntry
				for _, s := range rec.Succs {
					if g.HasNode(s.To) {
						succs = append(succs, s)
					}
				}
				rec.Succs = succs
				var preds []graph.NodeID
				var costs []float32
				for i, p := range rec.Preds {
					if g.HasNode(p) {
						preds = append(preds, p)
						costs = append(costs, op.PredCosts[i])
					}
				}
				rec.Preds = preds
				newOp := &netfile.InsertOp{Rec: rec, PredCosts: costs}
				if err := m.Insert(newOp, policy); err != nil {
					t.Fatalf("Insert(%d, %s): %v", id, policy, err)
				}
				// Mirror in the reference network.
				n := graph.Node{ID: id, Pos: rec.Pos, Attrs: rec.Attrs}
				if err := g.AddNode(n); err != nil {
					t.Fatal(err)
				}
				for _, s := range rec.Succs {
					if err := g.AddEdge(graph.Edge{From: id, To: s.To, Cost: float64(s.Cost), Weight: 1}); err != nil {
						t.Fatal(err)
					}
				}
				for i, p := range rec.Preds {
					if err := g.AddEdge(graph.Edge{From: p, To: id, Cost: float64(costs[i]), Weight: 1}); err != nil {
						t.Fatal(err)
					}
				}
			}
			checkConsistency(t, m, g)
		})
	}
}

func TestInsertIntoEmptyFile(t *testing.T) {
	m, err := New(Config{File: netfile.Options{PageSize: 512, PoolPages: 8}})
	if err != nil {
		t.Fatal(err)
	}
	empty := graph.NewNetwork()
	if err := m.Build(empty); err == nil {
		// Static build of an empty network errors inside the
		// partitioner; dynamic build succeeds trivially. Accept both,
		// but the file must exist for dynamic.
		t.Log("static build of empty network succeeded")
	}
	m, _ = New(Config{File: netfile.Options{PageSize: 512, PoolPages: 8}, Dynamic: true})
	if err := m.Build(empty); err != nil {
		t.Fatalf("dynamic build of empty network: %v", err)
	}
	// First insert goes to a fresh page.
	op := &netfile.InsertOp{Rec: &netfile.Record{ID: 1}}
	if err := m.Insert(op, netfile.FirstOrder); err != nil {
		t.Fatal(err)
	}
	// Second insert with an edge to the first lands on the same page.
	rec2 := &netfile.Record{ID: 2, Succs: []netfile.SuccEntry{{To: 1, Cost: 1}}}
	if err := m.Insert(&netfile.InsertOp{Rec: rec2}, netfile.FirstOrder); err != nil {
		t.Fatal(err)
	}
	p1, _ := m.File().PageOf(1)
	p2, _ := m.File().PageOf(2)
	if p1 != p2 {
		t.Fatalf("connected nodes on different pages: %d vs %d", p1, p2)
	}
	r1, err := m.File().Find(1)
	if err != nil {
		t.Fatal(err)
	}
	if len(r1.Preds) != 1 || r1.Preds[0] != 2 {
		t.Fatalf("node 1 preds = %v", r1.Preds)
	}
}

func TestHigherOrderImprovesCRROverFirstOrder(t *testing.T) {
	// Build on 80% of nodes, insert the rest; reorganizing policies
	// should end with CRR(first) <= CRR(second~higher) roughly.
	crrByPolicy := map[netfile.Policy]float64{}
	for _, policy := range []netfile.Policy{netfile.FirstOrder, netfile.SecondOrder, netfile.HigherOrder} {
		full := roadMap(t)
		ids := full.NodeIDs()
		rng := rand.New(rand.NewSource(11))
		rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
		late := map[graph.NodeID]bool{}
		for _, id := range ids[:len(ids)/5] {
			late[id] = true
		}
		base := full.Clone()
		for id := range late {
			base.RemoveNode(id)
		}
		m := build(t, base, Config{Seed: 5})
		cur := base.Clone()
		for _, id := range ids[:len(ids)/5] {
			op := insertOpRestricted(t, full, cur, id)
			if err := m.Insert(op, policy); err != nil {
				t.Fatalf("%s insert %d: %v", policy, id, err)
			}
			mirrorInsert(t, cur, op)
		}
		crrByPolicy[policy] = graph.CRR(cur, m.File().Placement())
		checkConsistency(t, m, cur)
	}
	t.Logf("CRR first=%.4f second=%.4f higher=%.4f",
		crrByPolicy[netfile.FirstOrder], crrByPolicy[netfile.SecondOrder], crrByPolicy[netfile.HigherOrder])
	if crrByPolicy[netfile.SecondOrder] < crrByPolicy[netfile.FirstOrder]-0.02 {
		t.Errorf("second-order CRR %.4f below first-order %.4f",
			crrByPolicy[netfile.SecondOrder], crrByPolicy[netfile.FirstOrder])
	}
}

// insertOpRestricted builds the insert op for node id of full, keeping
// only edges whose other endpoint is already in cur.
func insertOpRestricted(t *testing.T, full, cur *graph.Network, id graph.NodeID) *netfile.InsertOp {
	t.Helper()
	n, err := full.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	rec := &netfile.Record{ID: id, Pos: n.Pos}
	if n.Attrs != nil {
		rec.Attrs = append([]byte(nil), n.Attrs...)
	}
	for _, e := range full.SuccessorEdges(id) {
		if cur.HasNode(e.To) {
			rec.Succs = append(rec.Succs, netfile.SuccEntry{To: e.To, Cost: float32(e.Cost)})
		}
	}
	var costs []float32
	for _, p := range full.Predecessors(id) {
		if cur.HasNode(p) {
			e, err := full.Edge(p, id)
			if err != nil {
				t.Fatal(err)
			}
			rec.Preds = append(rec.Preds, p)
			costs = append(costs, float32(e.Cost))
		}
	}
	return &netfile.InsertOp{Rec: rec, PredCosts: costs}
}

// mirrorInsert applies op to the reference network.
func mirrorInsert(t *testing.T, g *graph.Network, op *netfile.InsertOp) {
	t.Helper()
	rec := op.Rec
	if err := g.AddNode(graph.Node{ID: rec.ID, Pos: rec.Pos, Attrs: rec.Attrs}); err != nil {
		t.Fatal(err)
	}
	for _, s := range rec.Succs {
		if err := g.AddEdge(graph.Edge{From: rec.ID, To: s.To, Cost: float64(s.Cost), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
	for i, p := range rec.Preds {
		if err := g.AddEdge(graph.Edge{From: p, To: rec.ID, Cost: float64(op.PredCosts[i]), Weight: 1}); err != nil {
			t.Fatal(err)
		}
	}
}

func TestDeleteUnderflowMerges(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 7})
	before := m.File().NumPages()
	// Delete many nodes first-order; pages should merge/free over time.
	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(8))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, id := range ids[:len(ids)/2] {
		if err := m.Delete(id, netfile.FirstOrder); err != nil {
			t.Fatalf("Delete(%d): %v", id, err)
		}
		g.RemoveNode(id)
	}
	after := m.File().NumPages()
	if after >= before {
		t.Fatalf("pages did not shrink after deleting half the nodes: %d -> %d", before, after)
	}
	checkConsistency(t, m, g)
}

func TestSplitPageDirectly(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 9})
	pid := m.File().Pages()[0]
	idsBefore, err := m.File().NodesOnPage(pid)
	if err != nil {
		t.Fatal(err)
	}
	if len(idsBefore) < 2 {
		t.Skip("first page too small to split")
	}
	pagesBefore := m.File().NumPages()
	if err := m.SplitPage(pid); err != nil {
		t.Fatal(err)
	}
	if m.File().NumPages() != pagesBefore+1 {
		t.Fatalf("split did not add a page: %d -> %d", pagesBefore, m.File().NumPages())
	}
	checkConsistency(t, m, g)
}

func TestCCAMWithFMPartitioner(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 3, Partitioner: &partition.FM{}})
	checkConsistency(t, m, g)
	if crr := graph.CRR(g, m.File().Placement()); crr < 0.55 {
		t.Fatalf("CCAM with FM partitioner CRR = %f", crr)
	}
}

// TestNbrPages: the PAG neighbors the higher-order and lazy policies
// read off the file's summary are the paper's (graph.BuildPAG over the
// placement), on every page: after Build, and after each step of a
// churn of node and edge updates under those two policies, whose page
// sets settle the summary in the middle of their mutation.
func TestNbrPages(t *testing.T) {
	full := roadMap(t)
	ids := full.NodeIDs()
	rng := rand.New(rand.NewSource(4))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	late := ids[:60]
	cur := full.Clone()
	for _, id := range late {
		cur.RemoveNode(id)
	}
	m := build(t, cur, Config{Seed: 4, LazyEvery: 3})
	f := m.File()
	check := func(step string) {
		t.Helper()
		pag := graph.BuildPAG(cur, f.Placement())
		for _, pid := range f.Pages() {
			var got []storage.PageID
			for _, q := range f.PAG().Neighbors(pid) {
				got = append(got, q.Page)
			}
			slices.Sort(got)
			want := pag.NbrPages(pid)
			slices.Sort(want)
			if !slices.Equal(got, want) {
				t.Fatalf("%s: page %d: summary's PAG neighbors %v, the placement's %v", step, pid, got, want)
			}
		}
	}
	check("build")
	var added [][2]graph.NodeID
	for i, id := range late {
		policy := []netfile.Policy{netfile.HigherOrder, netfile.Lazy}[i%2]
		op := insertOpRestricted(t, full, cur, id)
		if err := m.Insert(op, policy); err != nil {
			t.Fatalf("%s insert %d: %v", policy, id, err)
		}
		mirrorInsert(t, cur, op)
		check(fmt.Sprintf("%s insert %d", policy, id))

		now := cur.NodeIDs()
		x, y := now[rng.Intn(len(now))], now[rng.Intn(len(now))]
		if x != y && cur.AddEdge(graph.Edge{From: x, To: y, Cost: 1, Weight: 1}) == nil {
			if err := m.InsertEdge(x, y, 1, policy); err != nil {
				t.Fatalf("%s insert edge %d->%d: %v", policy, x, y, err)
			}
			added = append(added, [2]graph.NodeID{x, y})
			check(fmt.Sprintf("%s insert edge %d->%d", policy, x, y))
		}
		if i%3 == 2 {
			e := added[0]
			added = added[1:]
			if err := m.DeleteEdge(e[0], e[1], policy); err != nil {
				t.Fatalf("%s delete edge %d->%d: %v", policy, e[0], e[1], err)
			}
			cur.RemoveEdge(e[0], e[1])
			check(fmt.Sprintf("%s delete edge %d->%d", policy, e[0], e[1]))

			victim := now[rng.Intn(len(now))]
			if err := m.Delete(victim, policy); err != nil {
				t.Fatalf("%s delete %d: %v", policy, victim, err)
			}
			cur.RemoveNode(victim)
			check(fmt.Sprintf("%s delete %d", policy, victim))
		}
	}
	checkConsistency(t, m, cur)
}

func TestEdgeInsertDelete(t *testing.T) {
	for _, policy := range []netfile.Policy{netfile.FirstOrder, netfile.SecondOrder, netfile.HigherOrder} {
		t.Run(policy.String(), func(t *testing.T) {
			g := roadMap(t)
			m := build(t, g, Config{Seed: 21})
			// Pick existing edges to delete and non-edges to insert.
			edges := g.Edges()
			rng := rand.New(rand.NewSource(22))
			for trial := 0; trial < 15; trial++ {
				e := edges[rng.Intn(len(edges))]
				if err := m.DeleteEdge(e.From, e.To, policy); err != nil {
					t.Fatalf("DeleteEdge(%d,%d): %v", e.From, e.To, err)
				}
				if err := g.RemoveEdge(e.From, e.To); err != nil {
					t.Fatal(err)
				}
				// Double delete fails.
				if err := m.DeleteEdge(e.From, e.To, policy); err == nil {
					t.Fatal("double edge delete accepted")
				}
				// Re-insert.
				if err := m.InsertEdge(e.From, e.To, float32(e.Cost), policy); err != nil {
					t.Fatalf("InsertEdge: %v", err)
				}
				if err := g.AddEdge(graph.Edge{From: e.From, To: e.To, Cost: e.Cost, Weight: 1}); err != nil {
					t.Fatal(err)
				}
				// Duplicate insert fails.
				if err := m.InsertEdge(e.From, e.To, float32(e.Cost), policy); err == nil {
					t.Fatal("duplicate edge insert accepted")
				}
			}
			checkConsistency(t, m, g)
		})
	}
}

func TestEdgeInsertToMissingNode(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 23})
	if err := m.InsertEdge(g.NodeIDs()[0], 999999, 1, netfile.FirstOrder); err == nil {
		t.Fatal("edge to missing node accepted")
	}
	if err := m.InsertEdge(5, 5, 1, netfile.FirstOrder); err == nil {
		t.Fatal("self loop accepted")
	}
}

func TestLazyPolicy(t *testing.T) {
	full := roadMap(t)
	ids := full.NodeIDs()
	rng := rand.New(rand.NewSource(31))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	late := ids[:len(ids)/5]
	base := full.Clone()
	for _, id := range late {
		base.RemoveNode(id)
	}

	run := func(policy netfile.Policy) (float64, float64) {
		m := build(t, base, Config{Seed: 33, LazyEvery: 6})
		cur := base.Clone()
		var io int64
		for _, id := range late {
			op := insertOpRestricted(t, full, cur, id)
			if err := m.File().ResetIO(); err != nil {
				t.Fatal(err)
			}
			if err := m.Insert(op, policy); err != nil {
				t.Fatalf("%s insert %d: %v", policy, id, err)
			}
			if err := m.File().Flush(); err != nil {
				t.Fatal(err)
			}
			st := m.File().DataIO()
			io += st.Reads + st.Writes
			mirrorInsert(t, cur, op)
		}
		checkConsistency(t, m, cur)
		return float64(io) / float64(len(late)), graph.CRR(cur, m.File().Placement())
	}

	firstIO, firstCRR := run(netfile.FirstOrder)
	lazyIO, lazyCRR := run(netfile.Lazy)
	higherIO, _ := run(netfile.HigherOrder)
	t.Logf("first: io=%.2f crr=%.4f | lazy: io=%.2f crr=%.4f | higher io=%.2f",
		firstIO, firstCRR, lazyIO, lazyCRR, higherIO)
	// Lazy pays more than first-order but much less than higher-order,
	// and recovers CRR relative to first-order.
	if lazyIO <= firstIO {
		t.Errorf("lazy I/O %.2f should exceed first-order %.2f", lazyIO, firstIO)
	}
	if lazyIO >= higherIO {
		t.Errorf("lazy I/O %.2f should stay below higher-order %.2f", lazyIO, higherIO)
	}
	if lazyCRR < firstCRR-0.01 {
		t.Errorf("lazy CRR %.4f fell below first-order %.4f", lazyCRR, firstCRR)
	}
}

// TestFigureOneStyleClustering reproduces the structure of the paper's
// Figure 1: a small network with three natural clusters must be stored
// on three data pages, one cluster per page, with only the cut edges
// split.
func TestFigureOneStyleClustering(t *testing.T) {
	g := graph.NewNetwork()
	clusters := [][]graph.NodeID{
		{1, 2, 3, 4},
		{5, 6, 7, 8},
		{9, 10, 11, 12},
	}
	for ci, cluster := range clusters {
		for i, id := range cluster {
			if err := g.AddNode(graph.Node{ID: id, Pos: geom.Point{X: float64(ci*100 + i*10), Y: float64(ci * 50)}}); err != nil {
				t.Fatal(err)
			}
		}
	}
	biEdge := func(a, b graph.NodeID) {
		g.AddEdge(graph.Edge{From: a, To: b, Cost: 1, Weight: 1})
		g.AddEdge(graph.Edge{From: b, To: a, Cost: 1, Weight: 1})
	}
	// Dense inside clusters.
	for _, cluster := range clusters {
		for i := 0; i < len(cluster); i++ {
			for j := i + 1; j < len(cluster); j++ {
				biEdge(cluster[i], cluster[j])
			}
		}
	}
	// Single bridges between clusters (the dashed cut of Figure 1).
	biEdge(4, 5)
	biEdge(8, 9)

	// Page size fits exactly one cluster.
	sizer := netfile.StoredSizer(g)
	clusterBytes := 0
	for _, id := range clusters[0] {
		clusterBytes += sizer(id)
	}
	pageSize := clusterBytes + 64 // room for one cluster, not two

	m := build(t, g, Config{File: netfile.Options{PageSize: pageSize, PoolPages: 16}, Seed: 7})
	if m.File().NumPages() != 3 {
		t.Fatalf("pages = %d, want 3", m.File().NumPages())
	}
	p := m.File().Placement()
	for _, cluster := range clusters {
		page := p[cluster[0]]
		for _, id := range cluster[1:] {
			if p[id] != page {
				t.Fatalf("cluster containing %d split across pages", id)
			}
		}
	}
	// CRR: only the 4 directed bridge edges are split: 1 - 4/40.
	if crr := graph.CRR(g, m.File().Placement()); crr < 0.89 || crr > 0.91 {
		t.Fatalf("CRR = %.4f, want 0.90", crr)
	}
}

func TestAttachValidations(t *testing.T) {
	g := roadMap(t)
	m := build(t, g, Config{Seed: 41})
	other, err := New(Config{File: netfile.Options{PageSize: 2048}})
	if err != nil {
		t.Fatal(err)
	}
	// Page size mismatch rejected.
	if err := other.Attach(m.File()); err == nil {
		t.Fatal("page-size mismatch accepted")
	}
	ok, err := New(Config{File: netfile.Options{PageSize: 1024}})
	if err != nil {
		t.Fatal(err)
	}
	if err := ok.Attach(m.File()); err != nil {
		t.Fatal(err)
	}
	// Double attach rejected.
	if err := ok.Attach(m.File()); err == nil {
		t.Fatal("double attach accepted")
	}
	// The attached method serves operations.
	if _, err := ok.File().Find(g.NodeIDs()[0]); err != nil {
		t.Fatal(err)
	}
}

// TestNbrPagesOfFreedPage: a page that is not live — freed by a merge,
// or never allocated — adds nothing to a Table 1 set, not even itself.
func TestNbrPagesOfFreedPage(t *testing.T) {
	m := build(t, roadMap(t), Config{Seed: 45})
	gone := storage.PageID(999999)
	if got, err := m.pageSet(nil, netfile.HigherOrder, nil, gone); err != nil || len(got) != 0 {
		t.Fatalf("pageSet(higher, page %d) = %v, %v; want none", gone, got, err)
	}
	live := m.File().Pages()[0]
	want, err := m.pageSet(nil, netfile.HigherOrder, nil, live)
	if err != nil || len(want) < 2 {
		t.Fatalf("pageSet(higher, page %d) = %v, %v", live, want, err)
	}
	if got, err := m.pageSet(nil, netfile.HigherOrder, nil, live, gone); err != nil || !slices.Equal(got, want) {
		t.Fatalf("pageSet(higher, pages %d and %d) = %v, %v; want %v", live, gone, got, err, want)
	}
}

// TestReclusterIgnoresCreatePartitioner: Config.Partitioner is Create's
// only. A CCAM-D build, which clusters nothing at once and reclusters
// around every Add-node, must place every record on the same page
// whichever partitioner is configured; a CCAM-S build must not (the
// configuration reaches Create).
func TestReclusterIgnoresCreatePartitioner(t *testing.T) {
	g := roadMap(t)
	parts := []partition.Bipartitioner{nil, &partition.Multilevel{}, &partition.FM{}}
	base := build(t, g, Config{Seed: 9, Dynamic: true}).File().Placement()
	for _, p := range parts[1:] {
		got := build(t, g, Config{Seed: 9, Dynamic: true, Partitioner: p}).File().Placement()
		if !maps.Equal(got, base) {
			t.Errorf("CCAM-D with %s places records differently from the default", p.Name())
		}
	}
	static := build(t, g, Config{Seed: 9}).File().Placement()
	if multi := build(t, g, Config{Seed: 9, Partitioner: &partition.Multilevel{}}).File().Placement(); maps.Equal(multi, static) {
		t.Error("CCAM-S placement does not depend on the partitioner")
	}
}
