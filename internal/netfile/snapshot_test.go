package netfile

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"testing"

	"ccam/internal/geom"
	"ccam/internal/graph"
)

func succCost(t *testing.T, rec *Record, to graph.NodeID) float32 {
	t.Helper()
	for _, s := range rec.Succs {
		if s.To == to {
			return s.Cost
		}
	}
	t.Fatalf("node %d has no successor %d", rec.ID, to)
	return 0
}

// runBatch brackets fn in a version batch and publishes it (auto LSN).
func runBatch(t testing.TB, f *File, fn func()) uint64 {
	t.Helper()
	f.BeginVersionBatch()
	fn()
	return f.PublishVersionBatch(0)
}

// TestSnapshotPinsEdgeCost pins a snapshot across an edge-cost batch:
// the pinned reader keeps the old cost while live reads and a fresh
// snapshot see the new one.
func TestSnapshotPinsEdgeCost(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	var e graph.Edge
	for _, cand := range g.Edges() {
		e = cand
		break
	}

	snap := f.Snapshot()
	defer snap.Close()
	old, err := snap.FindCtx(context.Background(), e.From)
	if err != nil {
		t.Fatal(err)
	}
	oldCost := succCost(t, old, e.To)

	runBatch(t, f, func() {
		if err := f.SetEdgeCost(e.From, e.To, oldCost+42); err != nil {
			t.Fatal(err)
		}
	})

	pinned, err := snap.FindCtx(context.Background(), e.From)
	if err != nil {
		t.Fatal(err)
	}
	if c := succCost(t, pinned, e.To); c != oldCost {
		t.Fatalf("pinned snapshot sees cost %v, want %v", c, oldCost)
	}
	live, err := f.Find(e.From)
	if err != nil {
		t.Fatal(err)
	}
	if c := succCost(t, live, e.To); c != oldCost+42 {
		t.Fatalf("live read sees cost %v, want %v", c, oldCost+42)
	}
	fresh := f.Snapshot()
	defer fresh.Close()
	rec, err := fresh.FindCtx(context.Background(), e.From)
	if err != nil {
		t.Fatal(err)
	}
	if c := succCost(t, rec, e.To); c != oldCost+42 {
		t.Fatalf("fresh snapshot sees cost %v, want %v", c, oldCost+42)
	}
	if snap.LSN() >= fresh.LSN() {
		t.Fatalf("LSNs not ordered: pinned %d, fresh %d", snap.LSN(), fresh.LSN())
	}
}

// TestSnapshotSurvivesDelete pins a snapshot, deletes a node in a
// batch, and checks the pinned view still resolves it — including
// through the range query's removed-entry union — while the live file
// and a fresh snapshot do not.
func TestSnapshotSurvivesDelete(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	id := g.NodeIDs()[3]
	node, err := g.Node(id)
	if err != nil {
		t.Fatal(err)
	}
	pos := node.Pos

	snap := f.Snapshot()
	defer snap.Close()

	runBatch(t, f, func() {
		rec, err := f.DeleteRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		if err := f.RemoveNeighborLinks(rec); err != nil {
			t.Fatal(err)
		}
	})

	if !snap.Has(id) {
		t.Fatal("pinned snapshot lost the deleted node")
	}
	rec, err := snap.FindCtx(context.Background(), id)
	if err != nil {
		t.Fatalf("pinned Find after delete: %v", err)
	}
	if rec.ID != id {
		t.Fatalf("pinned Find returned %d, want %d", rec.ID, id)
	}
	if _, err := f.Find(id); !errors.Is(err, ErrNotFound) {
		t.Fatalf("live Find after delete = %v, want ErrNotFound", err)
	}
	fresh := f.Snapshot()
	defer fresh.Close()
	if fresh.Has(id) {
		t.Fatal("fresh snapshot still sees the deleted node")
	}

	// The live spatial index no longer lists the node; the pinned range
	// query must resurface it via the batch's removed entries.
	rect := geom.Rect{Min: geom.Point{X: pos.X - 1e-6, Y: pos.Y - 1e-6}, Max: geom.Point{X: pos.X + 1e-6, Y: pos.Y + 1e-6}}
	got, err := snap.RangeQueryCtx(context.Background(), rect)
	if err != nil {
		t.Fatal(err)
	}
	found := false
	for _, r := range got {
		if r.ID == id {
			found = true
		}
	}
	if !found {
		t.Fatalf("pinned range query missed the deleted node (got %d records)", len(got))
	}
	gotFresh, err := fresh.RangeQueryCtx(context.Background(), rect)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range gotFresh {
		if r.ID == id {
			t.Fatal("fresh range query resurrected the deleted node")
		}
	}
}

// TestSnapshotAbortedBatchInvisible aborts a batch mid-flight: any
// pinnable LSN must keep resolving to the committed images.
func TestSnapshotAbortedBatchInvisible(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	var e graph.Edge
	for _, cand := range g.Edges() {
		e = cand
		break
	}
	before, err := f.Find(e.From)
	if err != nil {
		t.Fatal(err)
	}
	oldCost := succCost(t, before, e.To)

	snap := f.Snapshot()
	defer snap.Close()
	f.BeginVersionBatch()
	if err := f.SetEdgeCost(e.From, e.To, oldCost+7); err != nil {
		t.Fatal(err)
	}
	f.AbortVersionBatch()

	pinned, err := snap.FindCtx(context.Background(), e.From)
	if err != nil {
		t.Fatal(err)
	}
	if c := succCost(t, pinned, e.To); c != oldCost {
		t.Fatalf("pinned snapshot sees aborted cost %v, want %v", c, oldCost)
	}
	fresh := f.Snapshot()
	defer fresh.Close()
	rec, err := fresh.FindCtx(context.Background(), e.From)
	if err != nil {
		t.Fatal(err)
	}
	if c := succCost(t, rec, e.To); c != oldCost {
		t.Fatalf("fresh snapshot sees aborted cost %v, want %v", c, oldCost)
	}
}

// replaceInBatch deletes and re-inserts node id's record in one batch.
// That moves a placement, so every call installs one overlay delta.
func replaceInBatch(t testing.TB, f *File, id graph.NodeID) {
	t.Helper()
	runBatch(t, f, func() {
		rec, err := f.DeleteRecord(id)
		if err != nil {
			t.Fatal(err)
		}
		pid, ok := f.FindPageWithSpace(rec.EncodedSize())
		if !ok {
			if pid, err = f.AllocatePage(); err != nil {
				t.Fatal(err)
			}
		}
		if err := f.InsertRecordAt(rec, pid); err != nil {
			t.Fatal(err)
		}
	})
}

// TestOverlayFoldsAtEveryCommit: with nothing pinned, every commit
// folds its placement delta into the node index, so the delta list is
// empty after each; a held snapshot keeps the deltas above it, one per
// placement batch, and once it closes the next commit folds them all.
// Every node resolves throughout, the snapshot's view included.
func TestOverlayFoldsAtEveryCommit(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	ids := g.NodeIDs()
	resolvesAll := func(what string, v View) {
		t.Helper()
		for _, id := range ids {
			if rec, err := v.FindCtx(context.Background(), id); err != nil || rec.ID != id {
				t.Fatalf("%s: Find(%d) = %v, %v", what, id, rec, err)
			}
		}
	}
	for i := 0; i < 8; i++ {
		replaceInBatch(t, f, ids[i])
		if d := f.OverlayDepth(); d != 0 {
			t.Fatalf("overlay depth %d after commit %d with nothing pinned, want 0", d, i+1)
		}
	}
	resolvesAll("live", f.live())
	snap := f.Snapshot()
	defer snap.Close()
	for i := 1; i <= 12; i++ {
		replaceInBatch(t, f, ids[i%16])
		if d := f.OverlayDepth(); d != i {
			t.Fatalf("overlay depth %d after %d placement batches under a held snapshot, want %d", d, i, i)
		}
	}
	resolvesAll("live", f.live())
	resolvesAll("held snapshot", snap.View)
	snap.Close()
	replaceInBatch(t, f, ids[20])
	if d := f.OverlayDepth(); d != 0 {
		t.Fatalf("overlay depth %d after the snapshot closed and a batch committed, want 0", d)
	}
	resolvesAll("live", f.live())
}

// TestUnbatchedChangeAfterBatches: a placement change made outside a
// version batch must win over the deltas earlier batches left in the
// overlay — the live end has no other index to fall back on.
func TestUnbatchedChangeAfterBatches(t *testing.T) {
	g := testNetwork(t)
	f := buildFile(t, g, 1024, 16)
	id := g.NodeIDs()[0]
	replaceInBatch(t, f, id) // a committed delta now names id's page
	dst, err := f.AllocatePage()
	if err != nil {
		t.Fatal(err)
	}
	if err := f.MoveRecord(id, dst); err != nil {
		t.Fatal(err)
	}
	if pid, err := f.PageOf(id); err != nil || pid != dst {
		t.Fatalf("PageOf after an unbatched move = %d, %v; want page %d", pid, err, dst)
	}
	if _, err := f.Find(id); err != nil {
		t.Fatalf("Find after an unbatched move: %v", err)
	}
	if _, err := f.DeleteRecord(id); err != nil {
		t.Fatal(err)
	}
	if f.Has(id) {
		t.Fatal("node still indexed after an unbatched delete")
	}
}

// BenchmarkLiveLookup prices a node-index lookup at the live end — what
// every writer-side PageOf pays, and a reader's resolve at depth 0 —
// over the 65,231 ids of the 256x256-lattice road map in shuffled
// order, so successive lookups share no cache lines: with no delta
// listed, and with 8 placement batches pinned above the version floor
// by a held snapshot.
func BenchmarkLiveLookup(b *testing.B) {
	g, f := latticeFile(b)
	ids := g.NodeIDs()
	rand.New(rand.NewSource(1)).Shuffle(len(ids), func(i, j int) { ids[i], ids[j] = ids[j], ids[i] })
	for _, depth := range []int{0, 8} {
		b.Run(fmt.Sprintf("pinned=%d", depth), func(b *testing.B) {
			snap := f.Snapshot()
			defer snap.Close()
			for i := 0; i < depth; i++ {
				replaceInBatch(b, f, ids[i])
			}
			if d := f.OverlayDepth(); d != depth {
				b.Fatalf("overlay depth %d, want %d", d, depth)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := f.PageOf(ids[i%len(ids)]); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
