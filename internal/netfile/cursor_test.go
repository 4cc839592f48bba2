package netfile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// pageCopyReference reads the live file the slow, obvious way: every
// page copied out of its frame whole, every live slot of the copy
// through Slots, Get and DecodeRecord. The cursor's in-place answers
// are held against it.
func pageCopyReference(t *testing.T, f *File) map[graph.NodeID]*Record {
	t.Helper()
	want := make(map[graph.NodeID]*Record)
	for _, pid := range f.Pages() {
		b, err := f.pool.Fetch(pid)
		if err != nil {
			t.Fatal(err)
		}
		page := append([]byte(nil), b...)
		if err := f.pool.Unpin(pid, false); err != nil {
			t.Fatal(err)
		}
		sp, err := storage.LoadSlottedPage(page)
		if err != nil {
			t.Fatal(err)
		}
		for _, slot := range sp.Slots() {
			raw, err := sp.Get(slot)
			if err != nil {
				t.Fatal(err)
			}
			rec, err := DecodeRecord(raw)
			if err != nil {
				t.Fatal(err)
			}
			want[rec.ID] = rec
		}
	}
	return want
}

// searcher is the search surface File and Snapshot share.
type searcher interface {
	FindCtx(ctx context.Context, id graph.NodeID) (*Record, error)
	GetSuccessorsCtx(ctx context.Context, id graph.NodeID) ([]*Record, error)
	EvaluateRouteCtx(ctx context.Context, route graph.Route) (RouteAggregate, error)
	RangeQueryCtx(ctx context.Context, rect geom.Rect) ([]*Record, error)
	Scan(fn func(rec *Record) bool) error
}

func byID(recs []*Record) []*Record {
	sort.Slice(recs, func(i, j int) bool { return recs[i].ID < recs[j].ID })
	return recs
}

// checkSearcher holds every search operation of s against the
// reference records.
func checkSearcher(t *testing.T, name string, s searcher, want map[graph.NodeID]*Record, bounds geom.Rect, seed int64) {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	ids := make([]graph.NodeID, 0, len(want))
	for id := range want {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })

	for _, id := range ids {
		got, err := s.FindCtx(context.Background(), id)
		if err != nil || !reflect.DeepEqual(got, want[id]) {
			t.Errorf("%s: Find(%d) = %+v, %v; want %+v", name, id, got, err, want[id])
			return
		}
		succs, err := s.GetSuccessorsCtx(context.Background(), id)
		if err != nil || len(succs) != len(want[id].Succs) {
			t.Errorf("%s: GetSuccessors(%d) = %d records, %v; want %d", name, id, len(succs), err, len(want[id].Succs))
			return
		}
		for i, e := range want[id].Succs {
			if !reflect.DeepEqual(succs[i], want[e.To]) {
				t.Errorf("%s: GetSuccessors(%d)[%d] = %+v, want %+v", name, id, i, succs[i], want[e.To])
				return
			}
		}
	}
	if _, err := s.FindCtx(context.Background(), 1<<30); !errors.Is(err, ErrNotFound) {
		t.Errorf("%s: Find of a missing node = %v, want ErrNotFound", name, err)
	}

	// Random walks over the reference adjacency, aggregated by hand.
	for n := 0; n < 40; n++ {
		cur := ids[rng.Intn(len(ids))]
		route := graph.Route{cur}
		agg := RouteAggregate{Nodes: 1}
		for hop := rng.Intn(24); hop > 0 && len(want[cur].Succs) > 0; hop-- {
			e := want[cur].Succs[rng.Intn(len(want[cur].Succs))]
			cost := float64(e.Cost)
			agg.Nodes++
			agg.TotalCost += cost
			if agg.Nodes == 2 || cost < agg.MinCost {
				agg.MinCost = cost
			}
			if cost > agg.MaxCost {
				agg.MaxCost = cost
			}
			cur = e.To
			route = append(route, cur)
		}
		got, err := s.EvaluateRouteCtx(context.Background(), route)
		if err != nil || got != agg {
			t.Errorf("%s: EvaluateRoute(%v) = %+v, %v; want %+v", name, route, got, err, agg)
			return
		}
		// A hop to a node that is no successor must be refused.
		stray := ids[rng.Intn(len(ids))]
		if !want[cur].HasSucc(stray) {
			if _, err := s.EvaluateRouteCtx(context.Background(), append(route, stray)); !errors.Is(err, graph.ErrInvalidRoute) {
				t.Errorf("%s: route with non-edge %d->%d = %v, want ErrInvalidRoute", name, cur, stray, err)
			}
		}
	}

	for n := 0; n < 8; n++ {
		a := geom.Point{X: bounds.Min.X + rng.Float64()*bounds.Width(), Y: bounds.Min.Y + rng.Float64()*bounds.Height()}
		b := geom.Point{X: a.X + rng.Float64()*bounds.Width()/3, Y: a.Y + rng.Float64()*bounds.Height()/3}
		rect := geom.NewRect(a, b)
		var wantIn []*Record
		for _, id := range ids {
			if rect.Contains(want[id].Pos) {
				wantIn = append(wantIn, want[id])
			}
		}
		got, err := s.RangeQueryCtx(context.Background(), rect)
		if err != nil || !reflect.DeepEqual(byID(got), wantIn) {
			t.Errorf("%s: RangeQuery(%v) = %d records, %v; want %d", name, rect, len(got), err, len(wantIn))
			return
		}
	}

	scanned := make(map[graph.NodeID]*Record)
	if err := s.Scan(func(rec *Record) bool { scanned[rec.ID] = rec; return true }); err != nil || !reflect.DeepEqual(scanned, want) {
		t.Errorf("%s: Scan = %d records, %v; want the %d reference records", name, len(scanned), err, len(want))
	}
}

// churn commits one version batch of every kind of change a snapshot
// must not see: cost updates, edge inserts and deletes, a node delete,
// a node insert on a fresh page, and a record moved between pages.
func churn(t *testing.T, f *File, rng *rand.Rand, nextID *graph.NodeID) {
	t.Helper()
	live := pageCopyReference(t, f)
	ids := make([]graph.NodeID, 0, len(live))
	for id := range live {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	pick := func() graph.NodeID { return ids[rng.Intn(len(ids))] }
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	// A full page sheds half its records to a fresh one — more placement
	// changes under the snapshot.
	split := func(pid storage.PageID) error {
		on, err := f.NodesOnPage(pid)
		if err != nil {
			return err
		}
		dst, err := f.AllocatePage()
		if err != nil {
			return err
		}
		for _, id := range on[len(on)/2:] {
			if err := f.MoveRecord(id, dst); err != nil {
				return err
			}
		}
		return nil
	}
	runBatch(t, f, func() {
		for i := 0; i < 6; i++ {
			if u := pick(); len(live[u].Succs) > 0 {
				must(f.SetEdgeCost(u, live[u].Succs[0].To, float32(1+rng.Intn(500))))
			}
		}
		if u, v := pick(), pick(); u != v && !live[u].HasSucc(v) {
			must(f.AddEdgeRecords(u, v, 7, split))
		}
		// Delete a node and its links.
		gone := pick()
		rec, err := f.DeleteRecord(gone)
		must(err)
		must(f.RemoveNeighborLinks(rec))
		// Insert a node, wired to two survivors, on a page of its own.
		var a, b graph.NodeID
		for a == b || a == gone || b == gone {
			a, b = pick(), pick()
		}
		op := &InsertOp{
			Rec: &Record{
				ID: *nextID, Pos: live[a].Pos, Attrs: []byte{byte(*nextID)},
				Succs: []SuccEntry{{To: a, Cost: 3}}, Preds: []graph.NodeID{b},
			},
			PredCosts: []float32{4},
		}
		*nextID++
		pid, err := f.AllocatePage()
		must(err)
		must(f.InsertRecordAt(op.Rec, pid))
		must(f.UpdateNeighborLinks(op, split))
		// Move a record next to it: a placement change with no content
		// change, the reorganizer's primitive.
		if m := pick(); m != gone {
			must(f.MoveRecord(m, pid))
		}
	})
}

// TestCursorMatchesPageCopyReference is the equivalence gate of the
// read path: on seeded random road maps, at pool sizes of one frame,
// eight frames and the whole file, the answers of Find, GetSuccessors,
// EvaluateRoute, RangeQuery and Scan — through the live file, and
// through a snapshot held open while batches move, delete and insert
// records under it — equal the page-copy reference.
func TestCursorMatchesPageCopyReference(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		for _, pool := range []int{1, 8, 1 << 12} {
			seed, pool := seed, pool
			t.Run(fmt.Sprintf("seed%d/pool%d", seed, pool), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				opts := graph.MinneapolisLikeOpts()
				opts.Rows, opts.Cols, opts.Seed = 8+rng.Intn(8), 8+rng.Intn(8), seed
				g, err := graph.RoadMap(opts)
				if err != nil {
					t.Fatal(err)
				}
				pageSize := []int{512, 1024}[rng.Intn(2)]
				f := buildFile(t, g, pageSize, pool)
				bounds := g.Bounds()

				before := pageCopyReference(t, f)
				checkSearcher(t, "file", f, before, bounds, seed)
				snap := f.Snapshot()
				defer snap.Close()
				nextID := graph.NodeID(1 << 20)
				for round := 0; round < 4; round++ {
					churn(t, f, rng, &nextID)
					checkSearcher(t, fmt.Sprintf("snapshot after batch %d", round), snap, before, bounds, seed+int64(round))
				}
				after := pageCopyReference(t, f)
				if reflect.DeepEqual(before, after) {
					t.Fatal("churn changed nothing; the snapshot checks proved nothing")
				}
				checkSearcher(t, "file after churn", f, after, bounds, seed)
				fresh := f.Snapshot()
				defer fresh.Close()
				checkSearcher(t, "fresh snapshot", fresh, after, bounds, seed)
			})
		}
	}
}

// TestCursorStaysOnPage pins the paper's protocol down in counters: a
// route that never leaves a page makes one pool fetch, not one per
// hop, while a route that alternates between two pages fetches at
// every hop — through both the live file and a snapshot.
func TestCursorStaysOnPage(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 2048, 1<<12)
	place := f.Placement()
	var same, cross graph.Route
	for _, e := range g.Edges() {
		if _, err := g.Edge(e.To, e.From); err != nil {
			continue // need a two-way street to walk back and forth
		}
		if place[e.From] == place[e.To] && same == nil {
			same = graph.Route{e.From, e.To, e.From, e.To, e.From, e.To}
		}
		if place[e.From] != place[e.To] && cross == nil {
			cross = graph.Route{e.From, e.To, e.From, e.To, e.From, e.To}
		}
	}
	if same == nil || cross == nil {
		t.Skip("map has no two-way street of the needed kind")
	}
	snap := f.Snapshot()
	defer snap.Close()
	for _, r := range []struct {
		name string
		s    searcher
	}{{"file", f}, {"snapshot", snap}} {
		for _, c := range []struct {
			route graph.Route
			want  int64
		}{{same, 1}, {cross, int64(len(cross))}} {
			before := f.Pool().Stats().Fetches
			if _, err := r.s.EvaluateRouteCtx(context.Background(), c.route); err != nil {
				t.Fatal(err)
			}
			if got := f.Pool().Stats().Fetches - before; got != c.want {
				t.Errorf("%s: route %v made %d pool fetches, want %d", r.name, c.route, got, c.want)
			}
		}
	}
}

// TestSnapshotReadersDoNotDeadlockWriter runs snapshot route
// evaluations — which hold a page borrow while they stay on a page —
// beside a writer whose first touch of every page waits for that
// page's borrows to drain (SaveVersion). The test hangs if a borrow is
// ever left counted after its release, or if a reader ever waits on
// the writer while it holds a borrow the writer waits for.
func TestSnapshotReadersDoNotDeadlockWriter(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 1<<12)
	routes, err := graph.RandomWalkRoutes(g, 64, 32, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	edges := g.Edges()
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := f.Snapshot()
				if _, err := snap.EvaluateRouteCtx(context.Background(), routes[i%len(routes)]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					snap.Close()
					return
				}
				if _, err := snap.GetSuccessorsCtx(context.Background(), routes[i%len(routes)][0]); err != nil {
					t.Errorf("reader %d: %v", r, err)
					snap.Close()
					return
				}
				snap.Close()
			}
		}(r)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		// File mutators are the owner's to serialize: one writer.
		for i := 0; i < 300; i++ {
			f.BeginVersionBatch()
			for j := 0; j < 8; j++ {
				e := edges[(i*8+j)%len(edges)]
				if err := f.SetEdgeCost(e.From, e.To, float32(i+1)); err != nil {
					t.Errorf("writer: %v", err)
				}
			}
			f.PublishVersionBatch(0)
		}
	}()
	select {
	case <-done:
	case <-time.After(60 * time.Second):
		t.Error("writer made no progress for 60s beside snapshot readers: version-lock deadlock")
	}
	close(stop)
	wg.Wait()
}

// FuzzRecordView holds the in-place accessors against DecodeRecord:
// on an image DecodeRecord accepts they must report the same fields,
// and on any other image viewRecord must answer ErrCorruptRecord —
// without panicking or reading past the slice, which the runtime's
// bounds checks turn into a crash the fuzzer reports.
func FuzzRecordView(f *testing.F) {
	f.Add(EncodeRecord(&Record{ID: 7, Pos: geom.Point{X: 1, Y: 2}}))
	f.Add(EncodeRecord(&Record{
		ID: 9, Pos: geom.Point{X: -3.5, Y: 8}, Attrs: []byte("main st"),
		Succs: []SuccEntry{{To: 1, Cost: 2.5}, {To: 4, Cost: 0.25}}, Preds: []graph.NodeID{1, 2, 3},
	}))
	f.Add([]byte{})
	f.Add(make([]byte, recordHeaderSize-1))
	hostile := EncodeRecord(&Record{ID: 1, Succs: []SuccEntry{{To: 2, Cost: 1}}})
	hostile[22], hostile[23] = 0xFF, 0xFF // successor count far past the image
	f.Add(hostile)

	f.Fuzz(func(t *testing.T, img []byte) {
		// An exact-capacity copy: a read past len is a read past cap.
		img = append(make([]byte, 0, len(img)), img...)
		v, verr := viewRecord(img)
		rec, derr := DecodeRecord(img)
		if (verr == nil) != (derr == nil) {
			t.Fatalf("viewRecord err %v, DecodeRecord err %v", verr, derr)
		}
		if verr != nil {
			if !errors.Is(verr, ErrCorruptRecord) {
				t.Fatalf("viewRecord error %v does not wrap ErrCorruptRecord", verr)
			}
			return
		}
		// Floats may be NaN, which no == sees as equal: re-encode the
		// fields the accessors report and compare images instead.
		got := &Record{ID: v.id(), Pos: v.pos(), Attrs: rec.Attrs}
		for i := 0; i < v.numSuccs(); i++ {
			got.Succs = append(got.Succs, v.succ(i))
		}
		for i := 0; i < v.numPreds(); i++ {
			got.Preds = append(got.Preds, v.pred(i))
		}
		if enc := EncodeRecord(got); string(enc) != string(img) {
			t.Fatalf("accessors re-encode to %x, image is %x", enc, img)
		}
		if enc := EncodeRecord(rec); string(enc) != string(img) {
			t.Fatalf("DecodeRecord re-encodes to %x, image is %x", enc, img)
		}
		for _, e := range rec.Succs {
			// The first entry for an id is the one a route is charged.
			var first SuccEntry
			for _, c := range rec.Succs {
				if c.To == e.To {
					first = c
					break
				}
			}
			cost, ok := v.succCost(e.To)
			if !ok || math.Float32bits(cost) != math.Float32bits(first.Cost) {
				t.Fatalf("succCost(%d) = %v, %v; successor-list has %v", e.To, cost, ok, first)
			}
		}
	})
}

// TestSnapshotRangeQuerySeesConcurrentDelete deletes and re-inserts
// one node in a loop while snapshot readers run a window query over
// its position. A node that exists at the reader's LSN must be in the
// answer even when the delete lands mid-query: the delete takes the
// node out of the live spatial index and parks it in its batch's
// overlay delta in one step, and the reader has to look at both under
// the same lock or it can miss the node in each.
func TestSnapshotRangeQuerySeesConcurrentDelete(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 1<<12)
	bb := g.Bounds()
	pos := geom.Point{X: bb.Min.X + bb.Width()/2, Y: bb.Min.Y + bb.Height()/2}
	rect := geom.NewRect(geom.Point{X: pos.X - 1, Y: pos.Y - 1}, geom.Point{X: pos.X + 1, Y: pos.Y + 1})
	const x = graph.NodeID(1 << 20)
	rec := &Record{ID: x, Pos: pos}
	pid, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	insert := func() {
		if err := f.InsertRecordAt(rec, pid); err != nil {
			t.Fatal(err)
		}
	}
	runBatch(t, f, insert)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				snap := f.Snapshot()
				has := snap.Has(x)
				recs, err := snap.RangeQueryCtx(context.Background(), rect)
				lsn := snap.LSN()
				snap.Close()
				found := false
				for _, r := range recs {
					found = found || r.ID == x
				}
				if err != nil || found != has {
					t.Errorf("snapshot@%d: node exists = %v, window query found it = %v (err %v)", lsn, has, found, err)
					return
				}
			}
		}()
	}
	for i := 0; i < 2000 && !t.Failed(); i++ {
		runBatch(t, f, func() {
			if _, err := f.DeleteRecord(x); err != nil {
				t.Fatal(err)
			}
		})
		runBatch(t, f, insert)
	}
	close(stop)
	wg.Wait()
}
