package netfile

import (
	"context"
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/partition"
	"ccam/internal/storage"
)

func TestRecordCodecRoundTrip(t *testing.T) {
	r := &Record{
		ID:    42,
		Pos:   geom.Point{X: 1.5, Y: -2.25},
		Attrs: []byte("road-attrs"),
		Succs: []SuccEntry{{To: 7, Cost: 3.5}, {To: 9, Cost: 0.25}},
		Preds: []graph.NodeID{7, 11, 13},
	}
	enc := EncodeRecord(r)
	if len(enc) != r.EncodedSize() {
		t.Fatalf("encoded %d bytes, EncodedSize says %d", len(enc), r.EncodedSize())
	}
	got, err := DecodeRecord(enc)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(r, got) {
		t.Fatalf("round trip mismatch:\n%+v\n%+v", r, got)
	}
	id, err := RecordID(enc)
	if err != nil || id != 42 {
		t.Fatalf("RecordID = %d, %v", id, err)
	}
}

func TestRecordCodecProperty(t *testing.T) {
	f := func(id uint32, x, y float64, attrs []byte, nSucc, nPred uint8) bool {
		r := &Record{ID: graph.NodeID(id), Pos: geom.Point{X: x, Y: y}}
		if len(attrs) > 1000 {
			attrs = attrs[:1000]
		}
		if len(attrs) > 0 {
			r.Attrs = attrs
		}
		for i := 0; i < int(nSucc%40); i++ {
			r.Succs = append(r.Succs, SuccEntry{To: graph.NodeID(i), Cost: float32(i) * 1.5})
		}
		for i := 0; i < int(nPred%40); i++ {
			r.Preds = append(r.Preds, graph.NodeID(i*3))
		}
		got, err := DecodeRecord(EncodeRecord(r))
		if err != nil {
			return false
		}
		return reflect.DeepEqual(r, got)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestDecodeRejectsCorrupt(t *testing.T) {
	if _, err := DecodeRecord([]byte{1, 2, 3}); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("short buf = %v", err)
	}
	r := &Record{ID: 1, Succs: []SuccEntry{{To: 2, Cost: 1}}}
	enc := EncodeRecord(r)
	if _, err := DecodeRecord(enc[:len(enc)-2]); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("truncated = %v", err)
	}
	if _, err := RecordID([]byte{1}); !errors.Is(err, ErrCorruptRecord) {
		t.Fatalf("RecordID short = %v", err)
	}
}

func TestRecordMutators(t *testing.T) {
	r := &Record{ID: 1}
	r.AddSucc(2, 5)
	r.AddSucc(3, 6)
	r.AddPred(4)
	if !r.HasSucc(2) || r.HasSucc(9) {
		t.Fatal("HasSucc wrong")
	}
	if !r.RemoveSucc(2) || r.RemoveSucc(2) {
		t.Fatal("RemoveSucc wrong")
	}
	if !r.RemovePred(4) || r.RemovePred(4) {
		t.Fatal("RemovePred wrong")
	}
	r.AddPred(3)
	nb := r.Neighbors()
	if len(nb) != 1 || nb[0] != 3 {
		t.Fatalf("Neighbors = %v (succ and pred 3 must dedup)", nb)
	}
	c := r.Clone()
	c.AddSucc(99, 1)
	if r.HasSucc(99) {
		t.Fatal("Clone is shallow")
	}
}

func testNetwork(t testing.TB) *graph.Network {
	t.Helper()
	g, err := graph.RoadMap(graph.MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// buildFile bulk-loads g into a file using connectivity clustering.
func buildFile(t testing.TB, g *graph.Network, pageSize, poolPages int) *File {
	t.Helper()
	f, err := Create(Options{PageSize: pageSize, PoolPages: poolPages, Bounds: g.Bounds()})
	if err != nil {
		t.Fatal(err)
	}
	pages, err := partition.ClusterNodesIntoPagesOpts(g, StoredSizer(g), PageBudget(pageSize), &partition.RatioCut{}, partition.ClusterOptions{Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, pages); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestBulkLoadAndFind(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	if f.NumNodes() != g.NumNodes() {
		t.Fatalf("NumNodes = %d, want %d", f.NumNodes(), g.NumNodes())
	}
	for _, id := range g.NodeIDs()[:50] {
		rec, err := f.Find(id)
		if err != nil {
			t.Fatalf("Find(%d): %v", id, err)
		}
		if rec.ID != id {
			t.Fatalf("Find(%d) returned %d", id, rec.ID)
		}
		want := g.Successors(id)
		if len(rec.Succs) != len(want) {
			t.Fatalf("node %d: %d succs, want %d", id, len(rec.Succs), len(want))
		}
		if len(rec.Preds) != len(g.Predecessors(id)) {
			t.Fatalf("node %d pred count mismatch", id)
		}
	}
	if _, err := f.Find(999999); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Find missing = %v", err)
	}
}

func TestPlacementMatchesPages(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	p := f.Placement()
	if err := graph.ValidatePlacement(g, p); err != nil {
		t.Fatal(err)
	}
	// The index the placement comes from agrees with the pages.
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	crr := graph.CRR(g, p)
	if crr < 0.5 {
		t.Fatalf("bulk-loaded CRR = %f, implausibly low", crr)
	}
}

func TestGetSuccessorsIOMatchesCRRModel(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	crr := graph.CRR(g, f.Placement())

	ids := g.NodeIDs()
	rng := rand.New(rand.NewSource(2))
	rng.Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	sample := ids[:len(ids)/2]

	var totalReads, totalSuccs int64
	for _, id := range sample {
		if err := f.ResetIO(); err != nil {
			t.Fatal(err)
		}
		// Warm the page of id: the cost model assumes it is in memory.
		if _, err := f.Find(id); err != nil {
			t.Fatal(err)
		}
		base := f.DataIO().Reads
		succs, err := f.GetSuccessorsCtx(context.Background(), id)
		if err != nil {
			t.Fatal(err)
		}
		totalReads += f.DataIO().Reads - base
		totalSuccs += int64(len(succs))
	}
	actual := float64(totalReads) / float64(len(sample))
	predicted := (1 - crr) * g.AvgSuccessors()
	// The model is approximate (succ pages can coincide); actual must
	// be at or below the prediction and in its neighborhood.
	if actual > predicted*1.1+0.05 {
		t.Fatalf("Get-successors cost %.3f far above model %.3f", actual, predicted)
	}
	if actual < predicted*0.3 {
		t.Fatalf("Get-successors cost %.3f suspiciously below model %.3f", actual, predicted)
	}
	t.Logf("CRR=%.4f actual=%.3f predicted=%.3f", crr, actual, predicted)
}

func TestEvaluateRoute(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 2048, 1) // one-page buffer, as in the paper
	rng := rand.New(rand.NewSource(3))
	routes, err := graph.RandomWalkRoutes(g, 20, 10, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		agg, err := f.EvaluateRouteCtx(context.Background(), r)
		if err != nil {
			t.Fatal(err)
		}
		if agg.Nodes != 10 {
			t.Fatalf("Nodes = %d", agg.Nodes)
		}
		if agg.TotalCost <= 0 || agg.MinCost <= 0 || agg.MaxCost < agg.MinCost {
			t.Fatalf("implausible aggregate %+v", agg)
		}
	}
	// Invalid routes are rejected.
	if _, err := f.EvaluateRouteCtx(context.Background(), graph.Route{}); err == nil {
		t.Fatal("empty route accepted")
	}
	bad := graph.Route{routes[0][0], routes[0][0]} // self hop
	if _, err := f.EvaluateRouteCtx(context.Background(), bad); err == nil {
		t.Fatal("non-edge hop accepted")
	}
}

func TestRouteIOWithOnePageBuffer(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 2048, 1)
	crr := graph.CRR(g, f.Placement())
	rng := rand.New(rand.NewSource(4))
	routes, err := graph.RandomWalkRoutes(g, 100, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	var reads int64
	for _, r := range routes {
		if err := f.ResetIO(); err != nil {
			t.Fatal(err)
		}
		if _, err := f.EvaluateRouteCtx(context.Background(), r); err != nil {
			t.Fatal(err)
		}
		reads += f.DataIO().Reads
	}
	actual := float64(reads) / float64(len(routes))
	predicted := 1 + float64(20-1)*(1-crr)
	if actual > predicted*1.25 {
		t.Fatalf("route I/O %.2f far above model %.2f", actual, predicted)
	}
	t.Logf("route I/O actual=%.2f predicted=%.2f (CRR=%.3f)", actual, predicted, crr)
}

func TestInsertDeleteRecordAndNeighborLinks(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)

	// Remove a node from the file as if Delete() ran, then re-insert.
	victim := g.NodeIDs()[10]
	rec, err := f.DeleteRecord(victim)
	if err != nil {
		t.Fatal(err)
	}
	if f.Has(victim) {
		t.Fatal("record still indexed after delete")
	}
	if err := f.RemoveNeighborLinks(rec); err != nil {
		t.Fatal(err)
	}
	// No list names the victim any more (Check: every entry is stored).
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}

	// Re-insert on the page with most neighbors.
	op := &InsertOp{Rec: rec, PredCosts: make([]float32, len(rec.Preds))}
	pid, ok, err := f.SelectPageWithMostNeighbors(rec.Neighbors(), rec.EncodedSize())
	if err != nil || !ok {
		t.Fatalf("page selection: %v ok=%v", err, ok)
	}
	if err := f.InsertRecordAt(rec, pid); err != nil {
		t.Fatal(err)
	}
	if err := f.UpdateNeighborLinks(op, nil); err != nil {
		t.Fatal(err)
	}
	got, err := f.Find(victim)
	if err != nil {
		t.Fatal(err)
	}
	if len(got.Succs) != len(rec.Succs) {
		t.Fatal("succ list lost in round trip")
	}
	// Its successors list it back (Check: the lists agree).
	if err := f.Check(); err != nil {
		t.Fatal(err)
	}
	// Duplicate insert rejected.
	if err := f.InsertRecordAt(rec, pid); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("dup insert = %v", err)
	}
}

func TestMoveRecord(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)
	id := g.NodeIDs()[5]
	src, err := f.PageOf(id)
	if err != nil {
		t.Fatal(err)
	}
	dst, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.MoveRecord(id, dst); err != nil {
		t.Fatal(err)
	}
	now, err := f.PageOf(id)
	if err != nil {
		t.Fatal(err)
	}
	if now != dst || now == src {
		t.Fatalf("PageOf = %d, want %d", now, dst)
	}
	rec, err := f.Find(id)
	if err != nil || rec.ID != id {
		t.Fatalf("Find after move: %v", err)
	}
}

func TestRangeQuery(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 32)
	bounds := g.Bounds()
	rect := geom.NewRect(
		geom.Point{X: bounds.Min.X + bounds.Width()*0.2, Y: bounds.Min.Y + bounds.Height()*0.2},
		geom.Point{X: bounds.Min.X + bounds.Width()*0.5, Y: bounds.Min.Y + bounds.Height()*0.5},
	)
	got, err := f.RangeQueryCtx(context.Background(), rect)
	if err != nil {
		t.Fatal(err)
	}
	want := map[graph.NodeID]bool{}
	for _, id := range g.NodeIDs() {
		n, _ := g.Node(id)
		if rect.Contains(n.Pos) {
			want[id] = true
		}
	}
	if len(got) != len(want) {
		t.Fatalf("range query returned %d records, want %d", len(got), len(want))
	}
	for _, r := range got {
		if !want[r.ID] {
			t.Fatalf("unexpected node %d in range result", r.ID)
		}
	}
	// Whole-map query returns everything.
	all, err := f.RangeQueryCtx(context.Background(), bounds)
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != g.NumNodes() {
		t.Fatalf("whole-map query = %d, want %d", len(all), g.NumNodes())
	}
}

func TestOverflowHandlerRetries(t *testing.T) {
	// A tiny file with one nearly full page: adding links must trigger
	// the overflow handler, which splits by moving half elsewhere.
	f, err := Create(Options{PageSize: 256, PoolPages: 8})
	if err != nil {
		t.Fatal(err)
	}
	pid, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	// Fill the page with records carrying fat attrs.
	var ids []graph.NodeID
	for i := graph.NodeID(1); ; i++ {
		rec := &Record{ID: i, Attrs: make([]byte, 50)}
		if err := f.InsertRecordAt(rec, pid); err != nil {
			if errors.Is(err, storage.ErrPageFull) {
				break
			}
			t.Fatal(err)
		}
		ids = append(ids, i)
	}
	if len(ids) < 3 {
		t.Fatalf("setup produced %d records", len(ids))
	}
	called := false
	split := func(over storage.PageID) error {
		called = true
		newPid, err := f.AllocatePage()
		if err != nil {
			return err
		}
		nodes, err := f.NodesOnPage(over)
		if err != nil {
			return err
		}
		for _, id := range nodes[:len(nodes)/2] {
			if err := f.MoveRecord(id, newPid); err != nil {
				return err
			}
		}
		return nil
	}
	// New node 100 with every existing node as successor: each gains a
	// pred entry, overflowing the full page.
	newRec := &Record{ID: 100}
	for _, id := range ids {
		newRec.AddSucc(id, 1)
	}
	op := &InsertOp{Rec: newRec}
	if err := f.UpdateNeighborLinks(op, split); err != nil {
		t.Fatal(err)
	}
	if !called {
		t.Fatal("overflow handler never invoked")
	}
	for _, id := range ids {
		r, err := f.Find(id)
		if err != nil {
			t.Fatal(err)
		}
		if len(r.Preds) != 1 || r.Preds[0] != 100 {
			t.Fatalf("node %d preds = %v", id, r.Preds)
		}
	}
}

func TestInsertOpFromNodeAndValidate(t *testing.T) {
	g := testNetwork(t)
	id := g.NodeIDs()[0]
	op, err := InsertOpFromNode(g, id)
	if err != nil {
		t.Fatal(err)
	}
	if err := op.Validate(); err != nil {
		t.Fatal(err)
	}
	if len(op.PredCosts) != len(op.Rec.Preds) {
		t.Fatal("pred costs misaligned")
	}
	bad := &InsertOp{Rec: &Record{ID: 1, Preds: []graph.NodeID{2}}}
	if err := bad.Validate(); err == nil {
		t.Fatal("misaligned op validated")
	}
	if err := (&InsertOp{}).Validate(); err == nil {
		t.Fatal("nil record validated")
	}
}

func TestPolicyString(t *testing.T) {
	if FirstOrder.String() != "first-order" || SecondOrder.String() != "second-order" ||
		HigherOrder.String() != "higher-order" {
		t.Fatal("policy names wrong")
	}
	if Policy(9).String() == "" {
		t.Fatal("unknown policy has empty name")
	}
}
