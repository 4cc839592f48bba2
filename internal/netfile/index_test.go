package netfile

import (
	"context"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/storage"
)

// The node index's model: a File driven through a schedule of
// placement changes and pins, with a reference record-id map for every
// committed LSN a view may still read. The reference assigns slots
// itself, the way a slotted page does, so it predicts every record id
// rather than reading one back. After every step each pinned view, and
// the live end, must index every id the schedule has used exactly as
// its reference does and read each one, and the live end must pass
// File.Check.

// modelIDs is the schedule's id universe: a dense run, so ids share
// home blocks and their tombstones, and ids spread over the whole
// uint32 range down from graph.InvalidNodeID−1.
var modelIDs = func() []graph.NodeID {
	ids := make([]graph.NodeID, 0, 256)
	for k := 0; k < 200; k++ {
		ids = append(ids, graph.NodeID(k))
	}
	for j := 0; j < 56; j++ {
		ids = append(ids, graph.InvalidNodeID-1-graph.NodeID(j)*65521*61)
	}
	return ids
}()

// ridRef is a record id as the reference writes it: page and slot.
type ridRef struct {
	pid  storage.PageID
	slot int
}

// placements maps every placed node to its record id.
type placements = map[graph.NodeID]ridRef

func clonePlacements(m placements) placements {
	out := make(placements, len(m))
	for id, r := range m {
		out[id] = r
	}
	return out
}

// indexModel is the reference at the live end: each placed node's
// record id, and each page's slot directory (graph.InvalidNodeID for a
// tombstone), which assigns slots as storage.SlottedPage does — a
// record takes the first tombstone, else a new slot at the end, and a
// delete tombstones its slot and trims the tombstones at the end.
type indexModel struct {
	at    placements
	pages map[storage.PageID][]graph.NodeID
}

func newIndexModel() *indexModel {
	return &indexModel{at: placements{}, pages: map[storage.PageID][]graph.NodeID{}}
}

func (m *indexModel) store(id graph.NodeID, pid storage.PageID) {
	dir := m.pages[pid]
	slot := slices.Index(dir, graph.InvalidNodeID)
	if slot < 0 {
		slot = len(dir)
		dir = append(dir, id)
	}
	dir[slot] = id
	m.pages[pid] = dir
	m.at[id] = ridRef{pid, slot}
}

func (m *indexModel) remove(id graph.NodeID) {
	r := m.at[id]
	dir := m.pages[r.pid]
	dir[r.slot] = graph.InvalidNodeID
	for len(dir) > 0 && dir[len(dir)-1] == graph.InvalidNodeID {
		dir = dir[:len(dir)-1]
	}
	m.pages[r.pid] = dir
	delete(m.at, id)
}

// modelFile is an empty file of small pages, so placements spread over
// many of them and the table starts at its minimum size.
func modelFile(t testing.TB) *File {
	t.Helper()
	f, err := Create(Options{PageSize: 256, PoolPages: 64, Bounds: geom.NewRect(geom.Point{}, geom.Point{X: 16, Y: 16})})
	if err != nil {
		t.Fatal(err)
	}
	return f
}

// modelRecord is id's record: no edges, a position derived from the id.
func modelRecord(id graph.NodeID) *Record {
	return &Record{ID: id, Pos: geom.Point{X: float64(id % 16), Y: float64(id / 16 % 16)}}
}

// pageFor returns a page other than avoid with room for rec: a random
// existing one when it has room, else a fresh one.
func pageFor(t testing.TB, f *File, intn func(int) int, rec *Record, avoid storage.PageID) storage.PageID {
	t.Helper()
	if pages := f.Pages(); len(pages) > 0 {
		pid := pages[intn(len(pages))]
		if free, _ := f.FreeSpace(pid); pid != avoid && free >= rec.EncodedSize()+8 {
			return pid
		}
	}
	pid, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	return pid
}

// placementStep changes id's placement on the live file the way a
// mutation does: an absent id is inserted, a present one deleted or
// moved. m follows it.
func placementStep(t testing.TB, f *File, intn func(int) int, m *indexModel, id graph.NodeID) {
	t.Helper()
	rec := modelRecord(id)
	from, present := m.at[id]
	switch {
	case !present:
		pid := pageFor(t, f, intn, rec, storage.InvalidPageID)
		if err := f.InsertRecordAt(rec, pid); err != nil {
			t.Fatalf("insert %d on page %d: %v", id, pid, err)
		}
		m.store(id, pid)
	case intn(3) == 0:
		if _, err := f.DeleteRecord(id); err != nil {
			t.Fatalf("delete %d: %v", id, err)
		}
		m.remove(id)
	default:
		pid := pageFor(t, f, intn, rec, from.pid)
		if err := f.MoveRecord(id, pid); err != nil {
			t.Fatalf("move %d to page %d: %v", id, pid, err)
		}
		m.remove(id)
		m.store(id, pid)
	}
}

// presentID returns a random placed id, if there is one.
func presentID(intn func(int) int, cur placements) (graph.NodeID, bool) {
	if len(cur) == 0 {
		return 0, false
	}
	ids := make([]graph.NodeID, 0, len(cur))
	for id := range cur {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids[intn(len(ids))], true
}

// resolveErr compares v's index entry for node id, the page the PAG
// view names and v's read of the node with want; it describes the first
// difference, or returns nil.
func resolveErr(v View, id graph.NodeID, want placements) error {
	w, wok := want[id]
	r, ok := v.f.overlay.Load().lookup(id, v.pin.LSN)
	if got := (ridRef{v.f.ridPage(r), v.f.ridSlot(r)}); ok != wok || (ok && got != w) {
		return fmt.Errorf("node %d indexed at %+v (%v), want %+v (%v)", id, got, ok, w, wok)
	}
	if pid, ok := v.PAG().PageOf(id); ok != wok || (ok && pid != w.pid) {
		return fmt.Errorf("node %d: PAG view names page %d (%v), want %d (%v)", id, pid, ok, w.pid, wok)
	}
	rec, err := v.FindCtx(context.Background(), id)
	if wok && (err != nil || rec.ID != id || rec.Pos != modelRecord(id).Pos) {
		return fmt.Errorf("Find(%d) = %+v, %v", id, rec, err)
	}
	if !wok && !errors.Is(err, ErrNotFound) {
		return fmt.Errorf("Find(%d) of an absent node = %+v, %v; want ErrNotFound", id, rec, err)
	}
	return nil
}

// checkResolves holds a view's (or the live end's) index entry and
// read of every id in ids against want.
func checkResolves(t testing.TB, what string, v View, ids []graph.NodeID, want placements) {
	t.Helper()
	for _, id := range ids {
		if err := resolveErr(v, id, want); err != nil {
			t.Fatalf("%s: %v", what, err)
		}
	}
}

// runNodeIndexModel runs steps steps of the schedule intn chooses and
// returns the file it drove.
func runNodeIndexModel(t testing.TB, intn func(int) int, steps int) *File {
	f := modelFile(t)
	cur := newIndexModel()
	refs := map[uint64]placements{f.Pool().CommittedLSN(): {}}
	var views []View
	// folded: the last commit ran with nothing pinned, so it left no
	// delta listed.
	folded := true
	var used []graph.NodeID
	seen := map[graph.NodeID]bool{}
	use := func(id graph.NodeID) graph.NodeID {
		if !seen[id] {
			seen[id] = true
			used = append(used, id)
		}
		return id
	}
	defer func() {
		for _, v := range views {
			f.Unpin(v)
		}
	}()
	for step := 0; step < steps; step++ {
		switch op := intn(10); {
		case op < 5: // one batch of 1–4 placement changes
			n := 1 + intn(4)
			runBatch(t, f, func() {
				for i := 0; i < n; i++ {
					placementStep(t, f, intn, cur, use(modelIDs[intn(len(modelIDs))]))
				}
			})
			refs[f.Pool().CommittedLSN()] = clonePlacements(cur.at)
			folded = len(views) == 0
		case op < 7 && len(views) == 0: // unbatched: nothing may be pinned
			id, ok := presentID(intn, cur.at)
			if !ok {
				continue
			}
			if op == 5 {
				pid := pageFor(t, f, intn, modelRecord(id), cur.at[id].pid)
				if err := f.MoveRecord(id, pid); err != nil {
					t.Fatalf("unbatched move %d: %v", id, err)
				}
				cur.remove(id)
				cur.store(id, pid)
			} else {
				if _, err := f.DeleteRecord(id); err != nil {
					t.Fatalf("unbatched delete %d: %v", id, err)
				}
				cur.remove(id)
			}
			refs[f.Pool().CommittedLSN()] = clonePlacements(cur.at)
			folded = true
		case op < 8 && len(views) < 4 || len(views) == 0:
			views = append(views, f.PinView())
		default:
			i := intn(len(views))
			f.Unpin(views[i])
			views = append(views[:i], views[i+1:]...)
		}
		// Drop the references no view can read any more.
		keep := map[uint64]bool{f.Pool().CommittedLSN(): true}
		for _, v := range views {
			keep[v.LSN()] = true
		}
		for lsn := range refs {
			if !keep[lsn] {
				delete(refs, lsn)
			}
		}
		checkResolves(t, "live end", f.live(), used, cur.at)
		if err := f.Check(); err != nil {
			t.Fatalf("step %d: %v", step, err)
		}
		for _, v := range views {
			checkResolves(t, "pinned view", v, used, refs[v.LSN()])
			for _, id := range used {
				if _, want := refs[v.LSN()][id]; v.Has(id) != want {
					t.Fatalf("pinned view at LSN %d: Has(%d) = %v, want %v", v.LSN(), id, !want, want)
				}
			}
		}
		if folded && f.OverlayDepth() != 0 {
			t.Fatalf("step %d: overlay depth %d after a commit with nothing pinned, want 0", step, f.OverlayDepth())
		}
	}
	return f
}

// TestNodeIndexModel runs seeded schedules through the model: batches
// that insert, move, delete and re-insert ids (tombstoned slots
// included), unbatched moves and deletes, growth of the table, and
// views pinned and unpinned at random.
func TestNodeIndexModel(t *testing.T) {
	for seed := int64(1); seed <= 6; seed++ {
		rng := rand.New(rand.NewSource(seed))
		f := runNodeIndexModel(t, rng.Intn, 400)
		if n := len(f.overlay.Load().table.slots); n <= minTableSlots {
			t.Fatalf("seed %d: the table never grew past %d slots", seed, n)
		}
	}
}

// TestNodeIndexChurnNearHalfFull holds the live ids one short of half
// the table, then runs batches that each delete the oldest id and
// insert a fresh one, so every batch claims a new slot. Every pinned
// view and the live end keep resolving like the reference, and a
// rebuild leaves room for at least half as many new ids as it keeps
// live: the table is not rebuilt on every insert.
func TestNodeIndexChurnNearHalfFull(t *testing.T) {
	const live, batches = minTableSlots/2 - 1, 200
	f := modelFile(t)
	rng := rand.New(rand.NewSource(11))
	cur := newIndexModel()
	var ids []graph.NodeID
	insert := func(id graph.NodeID) {
		placementStep(t, f, rng.Intn, cur, id)
		ids = append(ids, id)
	}
	runBatch(t, f, func() {
		for id := graph.NodeID(0); id < live; id++ {
			insert(id)
		}
	})
	var views []View
	refs := map[uint64]placements{f.Pool().CommittedLSN(): clonePlacements(cur.at)}
	rebuilds, next := 0, graph.NodeID(live)
	for b := 0; b < batches; b++ {
		table := f.overlay.Load().table
		runBatch(t, f, func() {
			if _, err := f.DeleteRecord(ids[0]); err != nil {
				t.Fatal(err)
			}
			cur.remove(ids[0])
			ids = ids[1:]
			insert(next)
			next++
		})
		if f.overlay.Load().table != table {
			rebuilds++
		}
		refs[f.Pool().CommittedLSN()] = clonePlacements(cur.at)
		if rng.Intn(4) == 0 {
			views = append(views, f.PinView())
		}
		if len(views) > 0 && rng.Intn(3) == 0 {
			f.Unpin(views[0])
			views = views[1:]
		}
		all := make([]graph.NodeID, next)
		for i := range all {
			all[i] = graph.NodeID(i)
		}
		checkResolves(t, "live end", f.live(), all, cur.at)
		for _, v := range views {
			checkResolves(t, "pinned view", v, all, refs[v.LSN()])
		}
	}
	for _, v := range views {
		f.Unpin(v)
	}
	if max := 1 + batches/(live/2); rebuilds > max {
		t.Fatalf("%d rebuilds over %d new ids at %d live, want ≤ %d", rebuilds, batches, live, max)
	}
}

// FuzzNodeIndex drives the model from fuzzed bytes: each choice is
// the next byte modulo its range, and the schedule ends with the bytes.
func FuzzNodeIndex(f *testing.F) {
	f.Add([]byte{0, 0, 0, 1, 2, 3, 9, 9, 7, 0, 1, 5, 6, 9})
	f.Add([]byte{8, 0, 3, 7, 1, 2, 4, 0, 3, 9, 8, 0, 3, 2, 1, 0, 6, 5, 4})
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			data = data[:1024]
		}
		next := 0
		intn := func(n int) int {
			if next >= len(data) {
				return 0
			}
			next++
			return int(data[next-1]) % n
		}
		runNodeIndexModel(t, intn, len(data)/2)
	})
}

// TestNodeIndexConcurrentReaders runs two readers that pin a view,
// resolve and read every id of the universe against the reference of
// the view's LSN and unpin, beside a writer whose batches grow the table, fold and
// tombstone. Each batch's reference is stored before the batch
// publishes, so a reader finds the one for whatever LSN it pins.
func TestNodeIndexConcurrentReaders(t *testing.T) {
	f := modelFile(t)
	rng := rand.New(rand.NewSource(7))
	cur := newIndexModel()
	var refs sync.Map // LSN -> placements
	refs.Store(f.Pool().CommittedLSN(), placements{})
	done := make(chan struct{})
	var reads atomic.Int64
	var wg sync.WaitGroup
	for r := 0; r < 2; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for {
				select {
				case <-done:
					return
				default:
				}
				v := f.PinView()
				ref, ok := refs.Load(v.LSN())
				if !ok {
					t.Errorf("reader %d: no reference for pinned LSN %d", r, v.LSN())
					f.Unpin(v)
					return
				}
				for _, id := range modelIDs {
					if err := resolveErr(v, id, ref.(placements)); err != nil {
						t.Errorf("reader %d at LSN %d: %v", r, v.LSN(), err)
						f.Unpin(v)
						return
					}
				}
				f.Unpin(v)
				reads.Add(1)
			}
		}(r)
	}
	for b := 0; b < 300; b++ {
		f.BeginVersionBatch()
		for i, n := 0, 1+rng.Intn(4); i < n; i++ {
			placementStep(t, f, rng.Intn, cur, modelIDs[rng.Intn(len(modelIDs))])
		}
		refs.Store(f.Pool().CommittedLSN()+1, clonePlacements(cur.at))
		f.PublishVersionBatch(0)
		runtime.Gosched()
	}
	close(done)
	wg.Wait()
	if reads.Load() == 0 {
		t.Fatal("the readers resolved no view")
	}
}

// sparseNetwork is the test network with its ids spread over the
// uint32 range, as an import that keeps foreign ids would have them:
// stride 65,521 from 0, and the last node at graph.InvalidNodeID−1.
func sparseNetwork(t *testing.T) *graph.Network {
	t.Helper()
	g := testNetwork(t)
	ids := g.NodeIDs()
	remap := make(map[graph.NodeID]graph.NodeID, len(ids))
	for i, id := range ids {
		remap[id] = graph.NodeID(i) * 65521
	}
	remap[ids[len(ids)-1]] = graph.InvalidNodeID - 1
	h := graph.NewNetwork()
	for _, id := range ids {
		n, _ := g.Node(id)
		cp := *n
		cp.ID = remap[id]
		if err := h.AddNode(cp); err != nil {
			t.Fatal(err)
		}
	}
	for _, e := range g.Edges() {
		e.From, e.To = remap[e.From], remap[e.To]
		if err := h.AddEdge(e); err != nil {
			t.Fatal(err)
		}
	}
	return h
}

// checkAgainstNetwork compares Find, GetSuccessors, EvaluateRoute and
// RangeQuery on f with g.
func checkAgainstNetwork(t *testing.T, f *File, g *graph.Network) {
	t.Helper()
	for _, id := range g.NodeIDs() {
		rec, err := f.Find(id)
		if err != nil || rec.ID != id {
			t.Fatalf("Find(%d) = %v, %v", id, rec, err)
		}
		want := g.Successors(id)
		succs, err := f.GetSuccessorsCtx(context.Background(), id)
		if err != nil || len(succs) != len(want) {
			t.Fatalf("GetSuccessors(%d) = %d records, %v; want %d", id, len(succs), err, len(want))
		}
		got := make([]graph.NodeID, len(succs))
		for i, s := range succs {
			got[i] = s.ID
		}
		sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("GetSuccessors(%d) = %v, want %v", id, got, want)
			}
		}
	}
	routes, err := graph.RandomWalkRoutes(g, 30, 12, rand.New(rand.NewSource(5)))
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range routes {
		agg, err := f.EvaluateRouteCtx(context.Background(), r)
		if err != nil {
			t.Fatalf("EvaluateRoute(%v): %v", r, err)
		}
		want := 0.0
		for i := 1; i < len(r); i++ {
			e, err := g.Edge(r[i-1], r[i])
			if err != nil {
				t.Fatal(err)
			}
			want += float64(float32(e.Cost))
		}
		if agg.Nodes != len(r) || math.Abs(agg.TotalCost-want) > 1e-6*want {
			t.Fatalf("EvaluateRoute(%v) = %+v, want %d nodes costing %v", r, agg, len(r), want)
		}
	}
	b := g.Bounds()
	for _, frac := range []float64{0.1, 0.35, 1} {
		rect := geom.NewRect(b.Min, geom.Point{X: b.Min.X + b.Width()*frac, Y: b.Min.Y + b.Height()*frac})
		recs, err := f.RangeQueryCtx(context.Background(), rect)
		if err != nil {
			t.Fatal(err)
		}
		want := 0
		for _, id := range g.NodeIDs() {
			if n, _ := g.Node(id); rect.Contains(n.Pos) {
				want++
			}
		}
		for _, rec := range recs {
			if n, err := g.Node(rec.ID); err != nil || !rect.Contains(n.Pos) {
				t.Fatalf("RangeQuery(%v) returned node %d outside it", rect, rec.ID)
			}
		}
		if len(recs) != want {
			t.Fatalf("RangeQuery(%v) = %d records, want %d", rect, len(recs), want)
		}
	}
}

// checkIndexBytes asserts the table costs at most 32 bytes a live node.
func checkIndexBytes(t *testing.T, f *File) {
	t.Helper()
	n := f.NumNodes()
	if per := float64(8*len(f.overlay.Load().table.slots)) / float64(n); per > 32 {
		t.Fatalf("node index: %.1f bytes per live node over %d nodes, want ≤ 32", per, n)
	}
}

// TestSparseNodeIDs: ids spread over the uint32 range, 0 and
// graph.InvalidNodeID−1 included, resolve like dense ones. Every query
// agrees with the network before and after nodes at both ends of the
// range are deleted in one batch and re-inserted in the next — onto
// their tombstoned slots — and the table stays within 32 bytes a node.
func TestSparseNodeIDs(t *testing.T) {
	g := sparseNetwork(t)
	f := buildFile(t, g, 1024, 16)
	checkIndexBytes(t, f)
	checkAgainstNetwork(t, f, g)

	var deleted []*Record
	runBatch(t, f, func() {
		for _, id := range []graph.NodeID{0, 500 * 65521, graph.InvalidNodeID - 1} {
			rec, err := f.DeleteRecord(id)
			if err != nil {
				t.Fatal(err)
			}
			if err := f.RemoveNeighborLinks(rec); err != nil {
				t.Fatal(err)
			}
			deleted = append(deleted, rec)
		}
	})
	for _, rec := range deleted {
		if f.Has(rec.ID) {
			t.Fatalf("node %d still indexed after its delete committed", rec.ID)
		}
	}
	runBatch(t, f, func() {
		for _, rec := range deleted {
			pid, ok, err := f.SelectPageWithMostNeighbors(rec.Neighbors(), rec.EncodedSize())
			if err != nil {
				t.Fatal(err)
			}
			if !ok {
				if pid, err = f.AllocatePage(); err != nil {
					t.Fatal(err)
				}
			}
			if err := f.InsertRecordAt(rec, pid); err != nil {
				t.Fatal(err)
			}
			op := &InsertOp{Rec: rec, PredCosts: make([]float32, len(rec.Preds))}
			for i, p := range rec.Preds {
				e, err := g.Edge(p, rec.ID)
				if err != nil {
					t.Fatal(err)
				}
				op.PredCosts[i] = float32(e.Cost)
			}
			if err := f.UpdateNeighborLinks(op, nil); err != nil {
				t.Fatal(err)
			}
		}
	})
	checkIndexBytes(t, f)
	checkAgainstNetwork(t, f, g)
}

// TestReservedNodeID: the "no node" sentinel cannot be stored — its
// tombstone would read as an empty slot of the node index.
func TestReservedNodeID(t *testing.T) {
	f := modelFile(t)
	pid, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.InsertRecordAt(modelRecord(graph.InvalidNodeID), pid); err == nil {
		t.Fatal("InsertRecordAt stored graph.InvalidNodeID")
	}
	if f.Has(graph.InvalidNodeID) {
		t.Fatal("graph.InvalidNodeID indexed")
	}
}

// offsetStore is a MemStore whose page ids start at base: it lets a
// test allocate the largest page ids a record id can name.
type offsetStore struct {
	*storage.MemStore
	base storage.PageID
}

func (s *offsetStore) Allocate() (storage.PageID, error) {
	pid, err := s.MemStore.Allocate()
	return pid + s.base, err
}

func (s *offsetStore) ReadPage(pid storage.PageID, buf []byte) error {
	return s.MemStore.ReadPage(pid-s.base, buf)
}

func (s *offsetStore) WritePage(pid storage.PageID, buf []byte) error {
	return s.MemStore.WritePage(pid-s.base, buf)
}

func (s *offsetStore) WritePages(first storage.PageID, run []byte) error {
	return storage.WritePagesEach(s, first, run)
}

func (s *offsetStore) Free(pid storage.PageID) error { return s.MemStore.Free(pid - s.base) }

func (s *offsetStore) PageIDs() []storage.PageID {
	pids := s.MemStore.PageIDs()
	for i := range pids {
		pids[i] += s.base
	}
	return pids
}

// TestRecordIDPacking: at the smallest, the paper's and the largest
// page sizes the slot bits hold every slot number a page of node
// records can reach and no more; the largest page and slot pack and
// unpack, never to noRID, and name at least 64 GiB of data pages. The
// largest page id is allocated and holds a record; the first one past
// it is refused with ErrPageLimit, and goes back to the store.
func TestRecordIDPacking(t *testing.T) {
	for _, tc := range []struct {
		pageSize int
		slotBits uint
	}{{256, 3}, {2048, 7}, {65536, 12}} {
		t.Run(fmt.Sprint(tc.pageSize), func(t *testing.T) {
			st := &offsetStore{MemStore: storage.NewMemStore(tc.pageSize)}
			f, err := Create(Options{PageSize: tc.pageSize, PoolPages: 4, Store: st})
			if err != nil {
				t.Fatal(err)
			}
			if f.slotBits != tc.slotBits {
				t.Fatalf("%d slot bits, want %d", f.slotBits, tc.slotBits)
			}
			if n := storage.MaxSlots(tc.pageSize, recordHeaderSize); n > 1<<f.slotBits || n <= 1<<(f.slotBits-1) {
				t.Fatalf("%d slot bits for slot numbers below %d", f.slotBits, n)
			}
			maxPage, maxSlot := f.maxPageID(), 1<<f.slotBits-1
			if bytes := float64(maxPage+1) * float64(tc.pageSize); bytes < 64*(1<<30)-float64(tc.pageSize) {
				t.Fatalf("record ids name %.1f GiB of data pages, want ≥ 64", bytes/(1<<30))
			}
			for _, at := range []ridRef{{0, 0}, {0, maxSlot}, {maxPage, 0}, {maxPage, maxSlot}} {
				r := f.rid(at.pid, at.slot)
				if got := (ridRef{f.ridPage(r), f.ridSlot(r)}); r == noRID || got != at {
					t.Fatalf("%+v packs to %#x, which unpacks to %+v", at, uint32(r), got)
				}
			}

			st.base = maxPage
			pid, err := f.AllocatePage()
			if err != nil || pid != maxPage {
				t.Fatalf("AllocatePage = %d, %v; want page %d", pid, err, maxPage)
			}
			if err := f.InsertRecordAt(modelRecord(7), pid); err != nil {
				t.Fatal(err)
			}
			if rec, err := f.Find(7); err != nil || rec.ID != 7 {
				t.Fatalf("Find(7) on page %d = %+v, %v", pid, rec, err)
			}
			if err := f.Check(); err != nil {
				t.Fatal(err)
			}
			if pid, err := f.AllocatePage(); !errors.Is(err, ErrPageLimit) {
				t.Fatalf("AllocatePage past the limit = %d, %v; want ErrPageLimit", pid, err)
			}
			if f.NumPages() != 1 || st.NumPages() != 1 {
				t.Fatalf("after the refused allocation the file has %d pages and the store %d, want 1 each", f.NumPages(), st.NumPages())
			}
		})
	}
}

// TestCheckIndexFindsDisagreement breaks a built file's index three
// ways — two nodes of one page swap record ids, a node names a slot past
// its page's directory, a node leaves the index — and each time Check
// reports ErrIndexMismatch and a read through the bad entry fails with
// ErrCorruptRecord instead of returning another node.
func TestCheckIndexFindsDisagreement(t *testing.T) {
	g := testNetwork(t)
	for _, tc := range []struct {
		name    string
		corrupt func(f *File, a, b graph.NodeID, ra, rb rid)
		read    bool // a read of a fails with ErrCorruptRecord
	}{
		{"swapped", func(f *File, a, b graph.NodeID, ra, rb rid) {
			f.notePlacement(a, rb)
			f.notePlacement(b, ra)
		}, true},
		{"past the directory", func(f *File, a, _ graph.NodeID, ra, _ rid) {
			f.notePlacement(a, f.rid(f.ridPage(ra), 1<<f.slotBits-1))
		}, true},
		{"unindexed", func(f *File, a, _ graph.NodeID, _, _ rid) {
			f.notePlacement(a, noRID)
		}, false},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := buildFile(t, g, 1024, 16)
			if err := f.Check(); err != nil {
				t.Fatal(err)
			}
			ids, err := f.NodesOnPage(f.Pages()[0])
			if err != nil || len(ids) < 2 {
				t.Fatalf("page %d holds %v, %v", f.Pages()[0], ids, err)
			}
			a, b := ids[0], ids[1]
			ra, _ := f.ridOf(a)
			rb, _ := f.ridOf(b)
			tc.corrupt(f, a, b, ra, rb)
			if err := f.Check(); !errors.Is(err, ErrIndexMismatch) {
				t.Fatalf("Check = %v, want ErrIndexMismatch", err)
			}
			if _, err := f.Find(a); tc.read && !errors.Is(err, ErrCorruptRecord) {
				t.Fatalf("Find(%d) through a bad record id = %v, want ErrCorruptRecord", a, err)
			}
		})
	}
}
