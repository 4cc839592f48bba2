package netfile

import (
	"context"
	"encoding/binary"
	"errors"
	"math/rand"
	"reflect"
	"sort"
	"testing"

	"ccam/internal/buffer"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// keepNotThird is the filtering keep of the set-read checks: it drops
// every node whose id is a multiple of three.
func keepNotThird(id graph.NodeID) bool { return id%3 != 0 }

// setReadReference is what a set read must equal: one View.read per id,
// in order, the records that keep accepts (nil: all) appended. With
// skipMissing an id the view does not hold is left out; without, it
// fails the read.
func setReadReference(v View, ids []graph.NodeID, skipMissing bool, keep func(graph.NodeID) bool) ([]*Record, error) {
	var out []*Record
	for _, id := range ids {
		r, err := v.read(id)
		if skipMissing && errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			return nil, err
		}
		if keep == nil || keep(r.ID) {
			out = append(out, r)
		}
	}
	return out, nil
}

// checkSetRead holds readSet on v against setReadReference, with and
// without skipMissing and with and without a filtering keep, and its
// cost: the reference's index visits and, when the read succeeds, one
// pool request per distinct page the ids resolve to.
func checkSetRead(t testing.TB, v View, ids []graph.NodeID) {
	t.Helper()
	pages := make(map[storage.PageID]bool)
	for _, id := range ids {
		if pid, ok := v.PAG().PageOf(id); ok {
			pages[pid] = true
		}
	}
	for _, skipMissing := range []bool{false, true} {
		for _, keep := range []func(graph.NodeID) bool{nil, keepNotThird} {
			var acct, seeks metrics.Account
			c := v.Charging(&acct).cursor()
			var keepView func(recordView) bool
			if keep != nil {
				keepView = func(rv recordView) bool { return keep(rv.id()) }
			}
			got, err := c.readSet(context.Background(), ids, skipMissing, keepView)
			c.release()
			want, wantErr := setReadReference(v.Charging(&seeks), ids, skipMissing, keep)
			if (err == nil) != (wantErr == nil) || err != nil && err.Error() != wantErr.Error() {
				t.Fatalf("lsn %d, skipMissing %v, ids %v: set read failed with %v, one read per id with %v",
					v.pin.LSN, skipMissing, ids, err, wantErr)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("lsn %d, skipMissing %v, ids %v: set read = %v, one read per id = %v",
					v.pin.LSN, skipMissing, ids, recordIDs(got), recordIDs(want))
			}
			if acct.IndexVisits != seeks.IndexVisits {
				t.Fatalf("ids %v: %d index visits, one read per id made %d", ids, acct.IndexVisits, seeks.IndexVisits)
			}
			if req := acct.Hits + acct.Misses; err == nil && req != int64(len(pages)) {
				t.Fatalf("ids %v: %d pool requests for %d distinct pages", ids, req, len(pages))
			}
		}
	}
}

// liveIDs lists the nodes the live file holds, ascending.
func liveIDs(f *File) []graph.NodeID {
	var ids []graph.NodeID
	for id := range f.Placement() {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}

func recordIDs(recs []*Record) []graph.NodeID {
	out := make([]graph.NodeID, len(recs))
	for i, r := range recs {
		out[i] = r.ID
	}
	return out
}

// twoPages returns the nodes of two data pages of f, each in slot order.
func twoPages(t testing.TB, f *File) (a, b []graph.NodeID) {
	t.Helper()
	pids := f.Pages()
	if len(pids) < 2 {
		t.Fatal("the file has fewer than two pages")
	}
	var err error
	if a, err = f.NodesOnPage(pids[0]); err != nil {
		t.Fatal(err)
	}
	if b, err = f.NodesOnPage(pids[len(pids)/2]); err != nil {
		t.Fatal(err)
	}
	return a, b
}

// alternate interleaves a and b: a[0], b[0], a[1], b[1], ...
func alternate(a, b []graph.NodeID) []graph.NodeID {
	var out []graph.NodeID
	for i := 0; i < len(a) || i < len(b); i++ {
		if i < len(a) {
			out = append(out, a[i])
		}
		if i < len(b) {
			out = append(out, b[i])
		}
	}
	return out
}

// setReadFixture is a file with a view pinned before one batch that
// deletes nodes from a page — leaving tombstones in its slot directory
// — and inserts one node: the pinned view still holds the deleted nodes
// and not the inserted one, the live view the other way round.
type setReadFixture struct {
	f        *File
	pinned   View
	gone     []graph.NodeID // deleted after the pin
	inserted graph.NodeID   // inserted after the pin
	a, b     []graph.NodeID // two pages' nodes before the batch
}

func newSetReadFixture(t testing.TB, rows, cols, pageSize, poolPages int) *setReadFixture {
	t.Helper()
	opts := graph.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = rows, cols
	g, err := graph.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	x := &setReadFixture{f: buildFile(t, g, pageSize, poolPages)}
	x.a, x.b = twoPages(t, x.f)
	if len(x.a) < 4 {
		t.Fatalf("page holds %d nodes, want 4 or more", len(x.a))
	}
	x.pinned = x.f.PinView()
	x.gone = []graph.NodeID{x.a[0], x.a[len(x.a)/2]}
	x.inserted = graph.NodeID(1 << 20)
	runBatch(t, x.f, func() {
		for _, id := range x.gone {
			if _, err := x.f.DeleteRecord(id); err != nil {
				t.Fatal(err)
			}
		}
		pid, err := x.f.AllocatePage()
		if err != nil {
			t.Fatal(err)
		}
		rec := &Record{ID: x.inserted, Pos: g.Bounds().Min}
		if err := x.f.InsertRecordAt(rec, pid); err != nil {
			t.Fatal(err)
		}
	})
	return x
}

// TestSetReadMatchesSeeks holds the set read that window queries and
// FindSetCtx run on against one View.read per id: on ids in random
// order, ids whose pages alternate, duplicate ids, a page with
// tombstones, absent ids, and a pinned view that must skip a later
// insert and still see later deletes. Records, their order, errors,
// index visits and pool requests must all agree.
func TestSetReadMatchesSeeks(t *testing.T) {
	x := newSetReadFixture(t, 12, 12, 1024, 8)
	live := x.f.live()
	all := liveIDs(x.f)
	rand.New(rand.NewSource(1)).Shuffle(len(all), func(i, j int) { all[i], all[j] = all[j], all[i] })

	ab := alternate(x.a, x.b)
	sets := map[string][]graph.NodeID{
		"empty":         nil,
		"one":           all[:1],
		"shuffled":      all,
		"alternating":   ab,
		"duplicates":    append(append(append([]graph.NodeID{}, ab...), ab[0], ab[0]), ab[:5]...),
		"absent":        append(append([]graph.NodeID{}, ab[:3]...), 1<<30, ab[3]),
		"deleted later": append(append([]graph.NodeID{}, x.gone...), ab...),
		"inserted":      append([]graph.NodeID{x.inserted}, ab...),
	}
	names := make([]string, 0, len(sets))
	for name := range sets {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		t.Run(name, func(t *testing.T) {
			checkSetRead(t, live, sets[name])
			checkSetRead(t, x.pinned, sets[name])
		})
	}

	// The deletes left tombstones on the first page, and the set read
	// read the slots past them.
	c := live.cursor()
	r, err := c.resolve(x.a[1])
	if err != nil {
		t.Fatal(err)
	}
	pid := x.f.ridPage(r)
	if err := c.move(pid); err != nil {
		t.Fatal(err)
	}
	liveSlots := 0
	if err := eachRecord(&c.sp, func(int, recordView) error { liveSlots++; return nil }); err != nil {
		t.Fatal(err)
	}
	if slots := c.sp.NumSlots(); slots == liveSlots {
		t.Errorf("page %d has %d slots, all live: the deletes left no tombstone", pid, slots)
	}
	c.release()

	// The pinned view reads what it pinned: the deleted nodes and not
	// the inserted one; the live view the other way round.
	ids := append(append([]graph.NodeID{}, x.gone...), x.inserted)
	pc := x.pinned.cursor()
	defer pc.release()
	got, err := pc.readSet(context.Background(), ids, true, nil)
	if err != nil || !reflect.DeepEqual(recordIDs(got), x.gone) {
		t.Errorf("pinned set read of %v = %v, %v; want the deleted %v", ids, recordIDs(got), err, x.gone)
	}
	lc := live.cursor()
	defer lc.release()
	got, err = lc.readSet(context.Background(), ids, true, nil)
	if err != nil || !reflect.DeepEqual(recordIDs(got), []graph.NodeID{x.inserted}) {
		t.Errorf("live set read of %v = %v, %v; want the inserted %d", ids, recordIDs(got), err, x.inserted)
	}
}

// TestSetReadChecksContextPerPage: a canceled context stops a set read
// before its first page's fetch, and the set read charges nothing to
// the pool.
func TestSetReadChecksContextPerPage(t *testing.T) {
	x := newSetReadFixture(t, 8, 8, 512, 4)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var acct metrics.Account
	c := x.f.live().Charging(&acct).cursor()
	defer c.release()
	if _, err := c.readSet(ctx, alternate(x.a[1:2], x.b), false, nil); !errors.Is(err, context.Canceled) {
		t.Fatalf("set read under a canceled context: %v, want context.Canceled", err)
	}
	if acct.Hits+acct.Misses != 0 {
		t.Errorf("a canceled set read made %d pool requests", acct.Hits+acct.Misses)
	}
}

// FuzzSetRead holds the set read against one View.read per id on a
// fuzzed id list. Each 16-bit word of the input picks an id: a node of
// the file (deleted after the pin included), the node inserted after
// it, or one no view holds. The first byte picks the view.
func FuzzSetRead(f *testing.F) {
	x := newSetReadFixture(f, 8, 8, 512, 4)
	pool := append(append(liveIDs(x.f), x.gone...), x.inserted)
	word := func(ids ...int) []byte {
		var b []byte
		for _, i := range ids {
			b = binary.LittleEndian.AppendUint16(b, uint16(i))
		}
		return b
	}
	f.Add(byte(0), word(0, 1, 2, 3))
	f.Add(byte(1), word(5, 40, 5, 41, 6, 42, len(pool)-1, 0xffff))
	f.Add(byte(1), word(int(len(pool)-1), 3, 3, 3))
	f.Add(byte(0), []byte{})
	f.Fuzz(func(t *testing.T, view byte, prog []byte) {
		v := x.f.live()
		if view&1 != 0 {
			v = x.pinned
		}
		var ids []graph.NodeID
		for k := 0; k+1 < len(prog) && len(ids) < 512; k += 2 {
			w := int(binary.LittleEndian.Uint16(prog[k:]))
			if w < 2*len(pool) {
				ids = append(ids, pool[w%len(pool)])
			} else {
				ids = append(ids, graph.NodeID(w)<<16) // held by no view
			}
		}
		checkSetRead(t, v, ids)
	})
}

// rangeQueryBySeeks is the window query as one read per candidate: the
// candidates the live index yields, then the entries removed after the
// view's LSN, each id once, read in that order and kept when inside
// rect. RangeQueryCtx must answer the same records in the same order.
func rangeQueryBySeeks(t testing.TB, v View, rect geom.Rect) []*Record {
	t.Helper()
	var cand []graph.NodeID
	v.f.spatMu.RLock()
	st := v.f.overlay.Load()
	v.f.spatial.search(rect, func(id graph.NodeID) bool { cand = append(cand, id); return true })
	for _, d := range st.deltas {
		if d.lsn.Load() > v.pin.LSN {
			for _, e := range d.removed {
				if rect.Contains(e.pos) {
					cand = append(cand, e.id)
				}
			}
		}
	}
	v.f.spatMu.RUnlock()
	var out []*Record
	seen := make(map[graph.NodeID]bool)
	for _, id := range cand {
		if seen[id] {
			continue
		}
		seen[id] = true
		r, err := v.read(id)
		if v.pin.LSN != buffer.LiveLSN && errors.Is(err, ErrNotFound) {
			continue
		}
		if err != nil {
			t.Fatal(err)
		}
		if rect.Contains(r.Pos) {
			out = append(out, r)
		}
	}
	return out
}

// TestRangeQueryKeepsCandidateOrder: a window query answers, on the
// live view and on a view pinned before deletes and an insert, the
// records one read per candidate finds, in the spatial index's order.
func TestRangeQueryKeepsCandidateOrder(t *testing.T) {
	x := newSetReadFixture(t, 12, 12, 1024, 8)
	b := x.f.quant.Bounds()
	rng := rand.New(rand.NewSource(3))
	resurrected := 0
	for i := 0; i < 64; i++ {
		c := geom.Point{X: b.Min.X + rng.Float64()*b.Width(), Y: b.Min.Y + rng.Float64()*b.Height()}
		h := (0.02 + 0.3*rng.Float64()) * b.Width()
		rect := geom.NewRect(geom.Point{X: c.X - h, Y: c.Y - h}, geom.Point{X: c.X + h, Y: c.Y + h})
		for _, v := range []View{x.f.live(), x.pinned} {
			got, err := v.RangeQueryCtx(context.Background(), rect)
			if err != nil {
				t.Fatal(err)
			}
			if want := rangeQueryBySeeks(t, v, rect); !reflect.DeepEqual(got, want) {
				t.Fatalf("lsn %d, window %v: %v, one read per candidate %v", v.pin.LSN, rect, recordIDs(got), recordIDs(want))
			}
			if v == x.pinned {
				for _, r := range got {
					if r.ID == x.gone[0] || r.ID == x.gone[1] {
						resurrected++
					}
				}
			}
		}
	}
	if resurrected == 0 {
		t.Fatal("no window found a node deleted after the pin: the pinned checks proved little")
	}
}
