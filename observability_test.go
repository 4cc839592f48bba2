package ccam

// Store-level tests of the observability layer: per-operation
// instruments, the CRR/WCRR gauges, the exporters and the zero-cost
// disabled path. The metric primitives themselves (histogram quantiles,
// Prometheus/expvar rendering, trace ring) are tested in
// internal/metrics.

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"ccam/internal/metrics"
	"ccam/internal/storage"
)

func obsStore(t *testing.T) (*Store, *Network) {
	t.Helper()
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{
		PageSize:      2048,
		PoolPages:     8,
		Seed:          1,
		Metrics:       true,
		TraceCapacity: 64,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { s.Close() })
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	return s, g
}

func TestOpCountersAndDeltas(t *testing.T) {
	s, g := obsStore(t)
	ids := g.NodeIDs()
	const finds = 50
	pool := s.m.File().Pool()
	pool0, io0 := pool.Stats(), s.IO()
	for i := 0; i < finds; i++ {
		if _, err := s.Find(context.Background(), ids[i%len(ids)]); err != nil {
			t.Fatal(err)
		}
	}
	reg := s.Metrics()
	if got := reg.Counter("ccam_op_find_total").Value(); got != finds {
		t.Fatalf("find total = %d, want %d", got, finds)
	}
	if got := reg.Counter("ccam_op_find_errors_total").Value(); got != 0 {
		t.Fatalf("find errors = %d, want 0", got)
	}
	if snap := reg.Histogram("ccam_op_find_ns").Snapshot(); snap.Count != finds {
		t.Fatalf("find latency samples = %d, want %d", snap.Count, finds)
	}
	// A point lookup touches exactly one data page, so per-op buffer
	// accesses must sum to the operation count, and the data reads
	// charged to finds are both the pool's misses and the store's reads.
	hits := reg.Counter("ccam_op_find_buffer_hits_total").Value()
	reads := reg.Counter("ccam_op_find_data_reads_total").Value()
	if hits+reads != finds {
		t.Fatalf("buffer accesses = %d hits + %d reads, want %d total", hits, reads, finds)
	}
	if ps, io := pool.Stats().Sub(pool0), s.IO().Sub(io0); reads != ps.Misses || reads != io.Reads {
		t.Fatalf("data reads = %d, want = pool misses (%d) = store reads (%d)", reads, ps.Misses, io.Reads)
	}
	// Every descent visits the index; the tree is at least one level
	// deep, so index pages >= one per operation.
	if idx := reg.Counter("ccam_op_find_index_pages_total").Value(); idx < finds {
		t.Fatalf("index pages = %d, want >= %d", idx, finds)
	}
	// A failed lookup counts in both total and errors.
	if _, err := s.Find(context.Background(), NodeID(1<<30)); err == nil {
		t.Fatal("lookup of absent node succeeded")
	}
	if got := reg.Counter("ccam_op_find_errors_total").Value(); got != 1 {
		t.Fatalf("find errors after miss = %d, want 1", got)
	}
}

func TestTracesRecorded(t *testing.T) {
	s, g := obsStore(t)
	ids := g.NodeIDs()
	s.ResetIO() // empty the pool so the next find has a physical read
	if _, err := s.Find(context.Background(), ids[0]); err != nil {
		t.Fatal(err)
	}
	trs := s.Tracer().Recent(1)
	if len(trs) != 1 {
		t.Fatalf("got %d traces, want 1", len(trs))
	}
	tr := trs[0]
	if tr.Op != "find" || tr.Err != "" {
		t.Fatalf("trace = %q err=%q, want find/ok", tr.Op, tr.Err)
	}
	// A cold Find is one index visit and one miss; the miss's physical
	// read is the step that is timed.
	if want := (metrics.Cost{IndexVisits: 1, Misses: 1}); tr.Cost != want {
		t.Fatalf("cold find counted %+v, want %+v", tr.Cost, want)
	}
	if len(tr.Spans) != 1 || tr.Spans[0].Name != "storage.read" {
		t.Fatalf("trace spans = %v, want one storage.read", tr.Spans)
	}
}

func TestIOAfterClose(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: 4, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	for _, id := range g.NodeIDs()[:64] {
		if _, err := s.Find(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	}
	before := s.IO()
	if before.Reads == 0 {
		t.Fatal("expected physical reads before close")
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	// Close may flush dirty pages, so writes can grow; reads cannot.
	after := s.IO()
	if after.Reads != before.Reads {
		t.Fatalf("IO after close: reads %d, want %d", after.Reads, before.Reads)
	}
	if again := s.IO(); again != after {
		t.Fatalf("IO after close is not stable: %v then %v", after, again)
	}
}

func TestGaugesTrackBuildAndMutations(t *testing.T) {
	s, g := obsStore(t)
	reg := s.Metrics()
	crr, wcrr := reg.Gauge("ccam_crr").Value(), reg.Gauge("ccam_wcrr").Value()
	if got := s.CRR(g); math.Abs(crr-got) > 1e-12 {
		t.Fatalf("crr gauge = %v, direct = %v", crr, got)
	}
	if got := s.WCRR(g); math.Abs(wcrr-got) > 1e-12 {
		t.Fatalf("wcrr gauge = %v, direct = %v", wcrr, got)
	}

	// Delete and re-insert a node: the gauges must stay in [0,1]
	// throughout, and after the round trip the stored edge set again
	// matches the network, so the CRR gauge must equal the direct
	// recomputation against the store's new placement.
	rng := rand.New(rand.NewSource(2))
	ids := g.NodeIDs()
	for i := 0; i < 8; i++ {
		id := ids[rng.Intn(len(ids))]
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Delete(id, SecondOrder)); err != nil {
			t.Fatal(err)
		}
		if v := reg.Gauge("ccam_crr").Value(); v < 0 || v > 1 {
			t.Fatalf("crr gauge out of range after delete: %v", v)
		}
		if err := s.Apply(context.Background(), new(Batch).Insert(op, SecondOrder)); err != nil {
			t.Fatal(err)
		}
	}
	crr = reg.Gauge("ccam_crr").Value()
	if got := s.CRR(g); math.Abs(crr-got) > 1e-12 {
		t.Fatalf("crr gauge after mutations = %v, direct = %v", crr, got)
	}
}

// TestOverlayDepthGauge: ccam_overlay_depth counts the batch deltas a
// node-index lookup walks. A held snapshot keeps placement batches from
// folding, so the gauge climbs past netfile's compaction threshold (64);
// once the snapshot closes, the next commit folds the list away.
func TestOverlayDepthGauge(t *testing.T) {
	s, g := obsStore(t)
	depth := s.Metrics().Gauge("ccam_overlay_depth")
	if v := depth.Value(); v != 0 {
		t.Fatalf("overlay depth after Build = %v, want 0", v)
	}
	snap, err := s.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	defer snap.Close()
	// A delete and a re-insert each commit one batch that moves a
	// placement.
	churn := func(id NodeID) {
		t.Helper()
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Delete(id, FirstOrder)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Insert(op, FirstOrder)); err != nil {
			t.Fatal(err)
		}
	}
	ids := g.NodeIDs()
	for i := 0; i < 40; i++ {
		churn(ids[i])
	}
	if v := depth.Value(); v <= 64 {
		t.Fatalf("overlay depth after 80 placement batches under a held snapshot = %v, want > 64", v)
	}
	snap.Close()
	churn(ids[40])
	if v := depth.Value(); v >= 64 {
		t.Fatalf("overlay depth after the snapshot closed and a batch committed = %v, want it folded", v)
	}
}

func TestExportersViaStore(t *testing.T) {
	s, g := obsStore(t)
	if _, err := s.Find(context.Background(), g.NodeIDs()[0]); err != nil {
		t.Fatal(err)
	}

	mux := http.NewServeMux()
	ServeMetrics(mux, s)

	get := func(path string) *httptest.ResponseRecorder {
		rec := httptest.NewRecorder()
		mux.ServeHTTP(rec, httptest.NewRequest("GET", path, nil))
		return rec
	}

	prom := get("/metrics")
	if ct := prom.Header().Get("Content-Type"); !strings.HasPrefix(ct, "text/plain") {
		t.Fatalf("/metrics content type %q", ct)
	}
	body := prom.Body.String()
	for _, want := range []string{
		"# TYPE ccam_op_find_total counter",
		"ccam_op_find_total 1",
		"# TYPE ccam_crr gauge",
		"# TYPE ccam_op_find_ns histogram",
	} {
		if !strings.Contains(body, want) {
			t.Fatalf("/metrics missing %q:\n%s", want, body)
		}
	}

	var doc map[string]any
	if err := json.Unmarshal(get("/metrics.json").Body.Bytes(), &doc); err != nil {
		t.Fatalf("/metrics.json is not valid JSON: %v", err)
	}
	if _, ok := doc["ccam_op_find_total"]; !ok {
		t.Fatalf("/metrics.json missing find counter: %v", doc)
	}

	if tr := get("/traces").Body.String(); !strings.Contains(tr, "find") {
		t.Fatalf("/traces missing the find trace:\n%s", tr)
	}
}

// TestDisabledMetricsAddNoAllocs pins the zero-overhead claim: with
// metrics off, the facade wrapper must not allocate beyond what the
// underlying operation itself allocates.
func TestDisabledMetricsAddNoAllocs(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: 32, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	if s.Metrics() != nil || s.Tracer() != nil {
		t.Fatal("metrics unexpectedly enabled")
	}
	id := g.NodeIDs()[0]
	if _, err := s.Find(context.Background(), id); err != nil { // warm the page
		t.Fatal(err)
	}
	// The facade's read path is pin snapshot → find → unpin, so that is
	// the baseline the wrapper must not exceed.
	f := s.m.File()
	base := testing.AllocsPerRun(200, func() {
		snap := f.Snapshot()
		if _, err := snap.FindCtx(context.Background(), id); err != nil {
			t.Fatal(err)
		}
		snap.Close()
	})
	wrapped := testing.AllocsPerRun(200, func() {
		if _, err := s.Find(context.Background(), id); err != nil {
			t.Fatal(err)
		}
	})
	if wrapped > base {
		t.Fatalf("disabled facade allocates %.1f/op, bare file %.1f/op", wrapped, base)
	}
}

// TestBuildKeepsOptionsAfterOpenPath: a store reopened with OpenPath
// and then rebuilt must honor the same Options as one created with
// Open and built — one translation of Options into the file's
// configuration serves both.
func TestBuildKeepsOptionsAfterOpenPath(t *testing.T) {
	g := smallTestMap(t)
	opts := Options{PageSize: 1024, PoolPages: 48, PoolShards: 4, Seed: 2, Metrics: true, TraceCapacity: 16}
	for _, tc := range []struct {
		name string
		open func(t *testing.T, path string) (*Store, error)
	}{
		{"Open+Build", func(t *testing.T, path string) (*Store, error) {
			o := opts
			o.Path = path
			return Open(o)
		}},
		{"OpenPath+Build", func(t *testing.T, path string) (*Store, error) {
			s, err := Open(Options{PageSize: 1024, Seed: 2, Path: path})
			if err != nil {
				return nil, err
			}
			if err := s.Build(g); err != nil {
				return nil, err
			}
			if err := s.Close(); err != nil {
				return nil, err
			}
			return OpenPath(path, opts)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s, err := tc.open(t, filepath.Join(t.TempDir(), "net.ccam"))
			if err != nil {
				t.Fatal(err)
			}
			defer s.Close()
			if err := s.Build(g); err != nil {
				t.Fatal(err)
			}
			if pool := s.m.File().Pool(); pool.Capacity() != opts.PoolPages || pool.Shards() != opts.PoolShards {
				t.Errorf("pool after Build holds %d pages in %d shards, want %d in %d",
					pool.Capacity(), pool.Shards(), opts.PoolPages, opts.PoolShards)
			}
			idx := s.Metrics().Counter("ccam_op_find_index_pages_total")
			before := idx.Value()
			if _, err := s.Find(context.Background(), g.NodeIDs()[0]); err != nil {
				t.Fatal(err)
			}
			if idx.Value() == before {
				t.Error("a Find after Build visited no index page: the rebuilt file lost its registry")
			}
			if trs := s.Tracer().Recent(1); len(trs) != 1 || trs[0].Op != "find" {
				t.Errorf("traces after one Find = %v, want one find trace", trs)
			}
		})
	}
}

// runGoldenWorkload drives the fixed single-goroutine workload of
// TestPerOpPageCountsGolden against s, built from g.
func runGoldenWorkload(t *testing.T, s *Store, g *Network, seed int64) {
	t.Helper()
	ctx := context.Background()
	rng := rand.New(rand.NewSource(seed))
	ids := g.NodeIDs()
	pick := func() NodeID { return ids[rng.Intn(len(ids))] }
	for i := 0; i < 400; i++ {
		if _, err := s.Find(ctx, pick()); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 200; i++ {
		if _, err := s.GetSuccessors(ctx, pick()); err != nil {
			t.Fatal(err)
		}
	}
	routes, err := RandomWalkRoutes(g, 64, 20, rng)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		if _, err := s.EvaluateRoute(ctx, r); err != nil {
			t.Fatal(err)
		}
	}
	b := g.Bounds()
	for i := 0; i < 32; i++ {
		cx := b.Min.X + rng.Float64()*b.Width()
		cy := b.Min.Y + rng.Float64()*b.Height()
		win := NewRect(
			Point{X: cx - b.Width()/8, Y: cy - b.Height()/8},
			Point{X: cx + b.Width()/8, Y: cy + b.Height()/8},
		)
		if _, err := s.RangeQuery(ctx, win); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 16; i++ {
		id := pick()
		op, err := InsertOpFromNode(g, id)
		if err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Delete(id, SecondOrder)); err != nil {
			t.Fatal(err)
		}
		if err := s.Apply(context.Background(), new(Batch).Insert(op, SecondOrder)); err != nil {
			t.Fatal(err)
		}
	}
	for i := 0; i < 32; i++ {
		es := g.SuccessorEdges(pick())
		if len(es) == 0 {
			continue
		}
		e := es[rng.Intn(len(es))]
		if err := s.Apply(context.Background(), new(Batch).SetEdgeCost(e.From, e.To, float32(e.Cost)*1.1)); err != nil {
			t.Fatal(err)
		}
	}
	// Last, so that it moves no count of the phases above.
	for i := 0; i < 16; i++ {
		batch := make([]NodeID, 25)
		for j := range batch {
			batch[j] = pick()
		}
		if _, err := s.FindBatch(ctx, batch); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPerOpPageCountsGolden pins the page counts the registry charges to
// each operation — the idx/op and data/op columns of the retired
// `ccam-bench -exp metrics`, which PRs 13–16 each cited as "unchanged
// where the paper counts". It drives that experiment's fixed workload
// (paper map, seed 42, pool of 4 pages, one goroutine, so the counts are
// deterministic) and compares the raw counters with constants read off
// the output at commit 7181172, re-recorded when Create moved to the
// multilevel partitioner (a new placement), when a window query began
// to borrow each of its pages once, when FindBatch became one set read
// and when Create began to fill its pages (a new placement).
func TestPerOpPageCountsGolden(t *testing.T) {
	const seed = 42
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: 4, Seed: seed, Metrics: true, TraceCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}

	runGoldenWorkload(t, s, g, seed)

	// ccam_op_<op>_{total,data_reads_total,data_writes_total,index_pages_total}
	type counts struct{ ops, dataReads, dataWrites, indexPages int64 }
	golden := []struct {
		op   string
		want counts
	}{
		{"find", counts{400, 377, 0, 400}},
		{"get_successors", counts{200, 274, 0, 789}},
		{"evaluate_route", counts{64, 209, 0, 1280}},
		{"range_query", counts{32, 226, 0, 1899}},
		{"insert", counts{16, 0, 4, 303}},
		{"delete", counts{16, 5, 0, 281}},
		{"set_edge_cost", counts{32, 0, 0, 64}},
		{"find_batch", counts{16, 321, 4, 400}},
	}
	reg := s.Metrics()
	var table strings.Builder
	mismatch := false
	fmt.Fprintf(&table, "%-15s %-24s %s\n", "op", "got", "want {ops data_reads data_writes index_pages}")
	for _, row := range golden {
		p := "ccam_op_" + row.op + "_"
		got := counts{
			ops:        reg.Counter(p + "total").Value(),
			dataReads:  reg.Counter(p + "data_reads_total").Value(),
			dataWrites: reg.Counter(p + "data_writes_total").Value(),
			indexPages: reg.Counter(p + "index_pages_total").Value(),
		}
		mark := ""
		if got != row.want {
			mismatch, mark = true, "  <-- differs"
		}
		fmt.Fprintf(&table, "%-15s %-24s %v%s\n", row.op, fmt.Sprint(got), row.want, mark)
	}
	if mismatch {
		t.Fatalf("per-operation page counts moved:\n%s", table.String())
	}
}

// TestOpSeriesSumToGlobalCounters checks the per-operation accounts
// against the instrument they replaced as the source of the
// ccam_op_<name>_* series: the store-wide counters (Store.IO, the pool's
// Stats), which still count every transfer whoever caused it. Over the
// golden workload run alone, what the operations were charged must add
// up to exactly what the store and the pool saw. The per-mutation series
// (insert, delete, …) are left out of the sum: they are parts of the
// apply that ran them, whose account also holds the batch's validation
// reads.
func TestOpSeriesSumToGlobalCounters(t *testing.T) {
	const seed = 42
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: 4, Seed: seed, Metrics: true, TraceCapacity: 128})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	pool := s.m.File().Pool()
	io0, pool0 := s.IO(), pool.Stats()
	runGoldenWorkload(t, s, g, seed)
	io, ps := s.IO().Sub(io0), pool.Stats().Sub(pool0)

	part := map[opKind]bool{}
	for _, op := range mutationOps {
		part[op] = true
	}
	reg := s.Metrics()
	series := func(op opKind, name string) int64 {
		return reg.Counter("ccam_op_" + opNames[op] + "_" + name + "_total").Value()
	}
	var whole, parts struct{ reads, writes, hits int64 }
	for op := opNone + 1; op < numOps; op++ {
		sum := &whole
		if part[op] {
			sum = &parts
		}
		sum.reads += series(op, "data_reads")
		sum.writes += series(op, "data_writes")
		sum.hits += series(op, "buffer_hits")
	}
	if whole.reads != io.Reads || whole.writes != io.Writes {
		t.Errorf("operations were charged %d data reads and %d writes, the store did %d and %d",
			whole.reads, whole.writes, io.Reads, io.Writes)
	}
	if whole.hits != ps.Hits || whole.reads != ps.Misses {
		t.Errorf("operations were charged %d hits and %d data reads, the pool counted %d hits and %d misses",
			whole.hits, whole.reads, ps.Hits, ps.Misses)
	}
	if io.Reads == 0 || io.Writes == 0 || ps.Hits == 0 {
		t.Fatalf("the workload did not exercise the counters: io %v, pool %v", io, ps)
	}
	apply := struct{ reads, writes, hits int64 }{
		series(opApply, "data_reads"), series(opApply, "data_writes"), series(opApply, "buffer_hits"),
	}
	if parts.reads > apply.reads || parts.writes > apply.writes || parts.hits > apply.hits {
		t.Errorf("the mutations were charged %+v, more than the applies that ran them: %+v", parts, apply)
	}
}

// TestOneTracePerOperation: the trace ring holds one entry per facade
// operation, named like its ccam_op_<name>_* series and carrying what
// the whole operation counted — not one entry per record a graph search
// or a batch happened to read, which used to flush the ring (one
// ShortestPath left 256 entries named "find" and none of its own).
func TestOneTracePerOperation(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	s, err := Open(Options{PageSize: 2048, PoolPages: 64, Seed: 1, TraceCapacity: 256})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	if trs := s.Tracer().Recent(256); len(trs) != 1 || trs[0].Op != "build" {
		t.Fatalf("ring after Build = %+v, want the one build", trs)
	}

	ctx := context.Background()
	ids := g.NodeIDs()
	routes, err := RandomWalkRoutes(g, 1, 12, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	src, dst := ids[3], ids[len(ids)-7]
	if _, err := s.Find(ctx, ids[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := s.EvaluateRoute(ctx, routes[0]); err != nil {
		t.Fatal(err)
	}
	path, err := s.ShortestPath(context.Background(), src, dst, 0)
	if err != nil {
		t.Fatal(err)
	}
	batch := make([]NodeID, 500)
	for i := range batch {
		batch[i] = ids[(i*7)%len(ids)]
	}
	if _, err := s.FindBatch(ctx, batch); err != nil {
		t.Fatal(err)
	}
	res, err := s.Query(ctx, fmt.Sprintf("PATH %d TO %d", src, dst))
	if err != nil {
		t.Fatal(err)
	}

	trs := s.Tracer().Recent(256)
	want := []string{"query", "find_batch", "shortest_path", "evaluate_route", "find", "build"} // newest first
	if len(trs) != len(want) {
		t.Fatalf("five operations after Build left %d ring entries, want %d: %+v", len(trs), len(want), trs)
	}
	byOp := map[string]Trace{}
	for i, tr := range trs {
		if tr.Op != want[i] {
			t.Fatalf("ring entry %d is %q, want %q", i, tr.Op, want[i])
		}
		byOp[tr.Op] = tr
	}
	// Each entry carries the whole operation's account.
	if c := byOp["find"].Cost; c.IndexVisits != 1 || c.Hits+c.Misses != 1 {
		t.Errorf("find counted %+v, want one index visit and one page", c)
	}
	if c := byOp["evaluate_route"].Cost; c.IndexVisits != int64(len(routes[0])) || c.Hits+c.Misses < 1 {
		t.Errorf("a %d-node route counted %+v", len(routes[0]), c)
	}
	if c := byOp["shortest_path"].Cost; c.IndexVisits < int64(len(path.Nodes)) || c.Hits+c.Misses < 1 {
		t.Errorf("a shortest path of %d nodes counted %+v", len(path.Nodes), c)
	}
	// A batch is one set read: an index visit per id, a pool request per
	// distinct page.
	batchPages := map[storage.PageID]bool{}
	placement := s.Placement()
	for _, id := range batch {
		batchPages[placement[id]] = true
	}
	if c := byOp["find_batch"].Cost; c.IndexVisits != int64(len(batch)) || c.Hits+c.Misses != int64(len(batchPages)) {
		t.Errorf("a %d-id FindBatch on %d pages counted %+v", len(batch), len(batchPages), c)
	}
	if c, a := byOp["query"].Cost, res.Actual; a == nil || c.IndexVisits != a.IndexPages || c.Hits != a.BufferHits || c.Misses != a.DataReads {
		t.Errorf("query's ring entry counted %+v, its Result.Actual says %+v", c, a)
	}

	mux := http.NewServeMux()
	ServeMetrics(mux, s)
	rec := httptest.NewRecorder()
	mux.ServeHTTP(rec, httptest.NewRequest("GET", "/traces?op=shortest_path", nil))
	if out := rec.Body.String(); strings.Count(out, "#") != 1 || !strings.Contains(out, " shortest_path ") || !strings.Contains(out, " idx=") {
		t.Fatalf("/traces?op=shortest_path should hold the one search with its account:\n%s", out)
	}
}

// TestAccountsExactUnderConcurrency: what an operation is charged is
// what it did, whatever runs beside it. Four readers run a fixed list
// of queries, each with its own ReqStats, while a writer commits
// SetEdgeCost batches with its own. Cost updates move no record, so a
// read visits the same pages at every LSN, and the pool holds the whole
// file: every read must be charged exactly what the same read cost in a
// solo pass (no misses, the same hits and index visits — a page served
// from a version chain because the writer got there first is a hit like
// any other), and every batch exactly what it costs on an identical
// store with no reader running.
func TestAccountsExactUnderConcurrency(t *testing.T) {
	g, err := RoadMap(MinneapolisLikeOpts())
	if err != nil {
		t.Fatal(err)
	}
	open := func() *Store {
		s, err := Open(Options{PageSize: 2048, PoolPages: 1024, PoolShards: 2, Seed: 7, Metrics: true, TraceCapacity: 64})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { s.Close() })
		if err := s.Build(g); err != nil {
			t.Fatal(err)
		}
		if err := s.Scan(func(*Record) bool { return true }); err != nil { // warm the pool
			t.Fatal(err)
		}
		return s
	}
	s, quiet := open(), open()

	// The readers' fixed list.
	rng := rand.New(rand.NewSource(3))
	ids := g.NodeIDs()
	routes, err := RandomWalkRoutes(g, 4, 33, rng)
	if err != nil {
		t.Fatal(err)
	}
	b := g.Bounds()
	type readOp struct {
		name string
		run  func(ctx context.Context) (*Result, error)
	}
	var ops []readOp
	for i := 0; i < 4; i++ {
		id, route := ids[rng.Intn(len(ids))], routes[i]
		cx, cy := b.Min.X+rng.Float64()*b.Width(), b.Min.Y+rng.Float64()*b.Height()
		win := NewRect(Point{X: cx - b.Width()/10, Y: cy - b.Height()/10}, Point{X: cx + b.Width()/10, Y: cy + b.Height()/10})
		stmt := fmt.Sprintf("NEIGHBORS %d DEPTH 2", id)
		ops = append(ops,
			readOp{fmt.Sprintf("Find(%d)", id), func(ctx context.Context) (*Result, error) { _, err := s.Find(ctx, id); return nil, err }},
			readOp{fmt.Sprintf("GetSuccessors(%d)", id), func(ctx context.Context) (*Result, error) { _, err := s.GetSuccessors(ctx, id); return nil, err }},
			readOp{fmt.Sprintf("EvaluateRoute(#%d)", i), func(ctx context.Context) (*Result, error) { _, err := s.EvaluateRoute(ctx, route); return nil, err }},
			readOp{fmt.Sprintf("RangeQuery(#%d)", i), func(ctx context.Context) (*Result, error) { _, err := s.RangeQuery(ctx, win); return nil, err }},
			readOp{"Query(" + stmt + ")", func(ctx context.Context) (*Result, error) { return s.Query(ctx, stmt) }},
		)
	}
	// account runs one read with a ReqStats of its own and returns it; a
	// Query's Result.Actual must say the same thing.
	account := func(op readOp) (ReqStats, error) {
		var rs ReqStats
		res, err := op.run(WithReqStats(context.Background(), &rs))
		if err != nil {
			return rs, err
		}
		if res != nil {
			a := res.Actual
			if a == nil || a.DataReads != rs.DataReads || a.IndexPages != rs.IndexPages || a.BufferHits != rs.BufferHits || a.BufferMisses != rs.BufferMisses {
				return rs, fmt.Errorf("Result.Actual %+v disagrees with the request's ReqStats %+v", a, rs)
			}
		}
		return rs, nil
	}
	solo := make([]ReqStats, len(ops))
	for i, op := range ops {
		if solo[i], err = account(op); err != nil {
			t.Fatalf("%s: %v", op.name, err)
		}
		if solo[i].Ops != 1 || solo[i].DataReads != 0 || solo[i].BufferMisses != 0 || solo[i].BufferHits == 0 || solo[i].IndexPages == 0 {
			t.Fatalf("solo %s on a warm pool = %+v", op.name, solo[i])
		}
	}

	// The writer's batches, and what each costs with nobody else around.
	const batches, perBatch = 60, 8
	edges := g.Edges()
	batchOf := func(n int) *Batch {
		bt := new(Batch)
		for k := 0; k < perBatch; k++ {
			e := edges[(n*perBatch+k)*13%len(edges)]
			bt.SetEdgeCost(e.From, e.To, float32(e.Cost)+float32(n))
		}
		return bt
	}
	apply := func(st *Store, n int) ReqStats {
		var rs ReqStats
		if err := st.Apply(WithReqStats(context.Background(), &rs), batchOf(n)); err != nil {
			t.Errorf("batch %d: %v", n, err)
		}
		return rs
	}
	quietCost := make([]ReqStats, batches)
	for n := range quietCost {
		quietCost[n] = apply(quiet, n)
		if quietCost[n].Ops != 1 || quietCost[n].IndexPages == 0 || quietCost[n].BufferHits == 0 {
			t.Fatalf("quiet batch %d = %+v", n, quietCost[n])
		}
	}

	done := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for pass := 0; ; pass++ {
				for i := range ops {
					j := (i + r*5) % len(ops)
					got, err := account(ops[j])
					if err != nil {
						t.Errorf("reader %d: %s: %v", r, ops[j].name, err)
						return
					}
					if got != solo[j] {
						t.Errorf("reader %d pass %d: %s was charged %+v, alone it costs %+v", r, pass, ops[j].name, got, solo[j])
						return
					}
				}
				select {
				case <-done:
					return
				default:
				}
			}
		}(r)
	}
	for n := 0; n < batches; n++ {
		if got := apply(s, n); got != quietCost[n] {
			// WALWaitNs is 0 on both sides: the stores have no log.
			t.Errorf("batch %d beside four readers was charged %+v, on a quiet store %+v", n, got, quietCost[n])
			break
		}
	}
	close(done)
	wg.Wait()
}
