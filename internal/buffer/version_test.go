package buffer

import (
	"bytes"
	"sync"
	"testing"
	"time"

	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// mutatePage runs one version-batch mutation of page id: the committed
// image is saved to the chain, the frame is overwritten with fill, and
// the batch publishes at commitLSN (0 auto-assigns). Returns the LSN.
func mutatePage(t *testing.T, p *Pool, id storage.PageID, fill byte, commitLSN uint64) uint64 {
	t.Helper()
	p.BeginVersionBatch()
	data, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.SaveVersion(id, data)
	for i := range data {
		data[i] = fill
	}
	p.Unpin(id, true)
	return p.PublishVersions(commitLSN)
}

func readAt(t *testing.T, p *Pool, id storage.PageID, lsn uint64) []byte {
	t.Helper()
	ref, err := p.ReadAt(id, lsn, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer ref.Release()
	cp := make([]byte, len(ref.Data))
	copy(cp, ref.Data)
	return cp
}

// TestVersionSnapshotSeesPreBatchImage pins a snapshot, commits a
// batch over it, and checks both sides: the pinned reader keeps the
// old image, a fresh reader sees the new one.
func TestVersionSnapshotSeesPreBatchImage(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 2)
	defer p.Close()
	id := ids[0]

	pin0 := p.AcquireSnapshot()
	lsn0 := pin0.LSN
	if lsn0 != 0 {
		t.Fatalf("initial committed LSN = %d, want 0", lsn0)
	}
	commit := mutatePage(t, p, id, 0xAA, 0)
	if commit != 1 {
		t.Fatalf("auto-assigned LSN = %d, want 1", commit)
	}

	if got := readAt(t, p, id, lsn0); got[0] != 1 {
		t.Fatalf("pinned reader sees %#x, want pre-batch image", got[0])
	}
	if got := readAt(t, p, id, commit); got[0] != 0xAA {
		t.Fatalf("new reader sees %#x, want committed image", got[0])
	}
	if n := p.ActiveSnapshots(); n != 1 {
		t.Fatalf("ActiveSnapshots = %d, want 1", n)
	}
	if entries, _ := p.VersionStats(); entries != 1 {
		t.Fatalf("retained entries = %d, want 1", entries)
	}

	// Releasing the pin advances the floor and collects the chain.
	p.ReleaseSnapshot(pin0)
	if entries, b := p.VersionStats(); entries != 0 || b != 0 {
		t.Fatalf("after release: entries=%d bytes=%d, want 0,0", entries, b)
	}
	if f := p.VersionFloor(); f != commit {
		t.Fatalf("floor = %d, want %d", f, commit)
	}
}

// TestVersionChainMiddleReader pins between two batches and must see
// exactly the first batch's image — the chain entry whose validity
// interval covers it — not the base or the newest bytes.
func TestVersionChainMiddleReader(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	id := ids[0]

	pin0 := p.AcquireSnapshot() // 0: base image
	lsn1 := mutatePage(t, p, id, 0x11, 0)
	pin1 := p.AcquireSnapshot() // 1: first batch's image
	lsn2 := mutatePage(t, p, id, 0x22, 0)

	if got := readAt(t, p, id, pin0.LSN); got[0] != 1 {
		t.Fatalf("reader@%d sees %#x, want base image", pin0.LSN, got[0])
	}
	if got := readAt(t, p, id, pin1.LSN); got[0] != 0x11 {
		t.Fatalf("reader@%d sees %#x, want batch-1 image", pin1.LSN, got[0])
	}
	if got := readAt(t, p, id, lsn2); got[0] != 0x22 {
		t.Fatalf("reader@%d sees %#x, want live image", lsn2, got[0])
	}
	if lsn1 != 1 || lsn2 != 2 {
		t.Fatalf("LSNs = %d,%d, want 1,2", lsn1, lsn2)
	}

	// Release out of order: dropping the old pin first lets GC cut the
	// base entry but must keep the batch-1 entry for pin1.
	p.ReleaseSnapshot(pin0)
	if got := readAt(t, p, id, pin1.LSN); got[0] != 0x11 {
		t.Fatalf("after partial GC reader@%d sees %#x, want batch-1 image", pin1.LSN, got[0])
	}
	p.ReleaseSnapshot(pin1)
	if entries, _ := p.VersionStats(); entries != 0 {
		t.Fatalf("retained entries = %d, want 0", entries)
	}
}

// TestVersionAbortKeepsCommittedImages aborts a half-applied batch and
// checks that both a previously pinned reader and a fresh pin resolve
// the mutated page to its committed bytes — the frame's torn bytes are
// unreachable at any pinnable LSN.
func TestVersionAbortKeepsCommittedImages(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	id := ids[0]

	pin := p.AcquireSnapshot()
	p.BeginVersionBatch()
	data, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.SaveVersion(id, data)
	for i := range data {
		data[i] = 0xEE // torn bytes that must never be served
	}
	p.Unpin(id, true)
	p.AbortVersionBatch()

	if got := readAt(t, p, id, pin.LSN); got[0] != 1 {
		t.Fatalf("pinned reader sees %#x after abort, want committed image", got[0])
	}
	fresh := p.AcquireSnapshot()
	if got := readAt(t, p, id, fresh.LSN); got[0] != 1 {
		t.Fatalf("fresh reader sees %#x after abort, want committed image", got[0])
	}
	p.ReleaseSnapshot(pin)
	p.ReleaseSnapshot(fresh)
}

// TestVersionReadersNeverSeeTornPages hammers one page with version
// batches while readers continuously pin, read and verify that every
// image they observe is internally consistent (a single repeated fill
// byte) and matches their pinned LSN's expected value.
func TestVersionReadersNeverSeeTornPages(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	id := ids[0]

	// Fill the page so image k (committed at LSN k) is all-k bytes.
	base, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	for i := range base {
		base[i] = 0
	}
	p.Unpin(id, true)

	const rounds = 200
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				pin := p.AcquireSnapshot()
				lsn := pin.LSN
				ref, err := p.ReadAt(id, lsn, nil)
				if err != nil {
					t.Error(err)
					p.ReleaseSnapshot(pin)
					return
				}
				want := byte(lsn % 251)
				ok := true
				for _, b := range ref.Data {
					if b != want {
						ok = false
						break
					}
				}
				ref.Release()
				p.ReleaseSnapshot(pin)
				if !ok {
					t.Errorf("reader@%d saw torn or wrong image (want fill %#x)", lsn, want)
					return
				}
			}
		}()
	}
	for k := uint64(1); k <= rounds; k++ {
		mutatePage(t, p, id, byte(k%251), k)
	}
	close(stop)
	wg.Wait()
	if entries, b := p.VersionStats(); entries != 0 || b != 0 {
		t.Fatalf("after drain: entries=%d bytes=%d, want 0,0", entries, b)
	}
}

// TestVersionSaveIsIdempotentPerBatch saves the same page twice in one
// batch and checks only the first (committed) image is retained — the
// second save must not capture the batch's own half-applied bytes.
func TestVersionSaveIsIdempotentPerBatch(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	id := ids[0]

	pin := p.AcquireSnapshot()
	p.BeginVersionBatch()
	data, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.SaveVersion(id, data)
	for i := range data {
		data[i] = 0x33
	}
	p.SaveVersion(id, data) // no-op: the batch already saved this page
	for i := range data {
		data[i] = 0x44
	}
	p.Unpin(id, true)
	p.PublishVersions(0)

	if entries, _ := p.VersionStats(); entries != 1 {
		t.Fatalf("retained entries = %d, want 1", entries)
	}
	got := readAt(t, p, id, pin.LSN)
	want := bytes.Repeat([]byte{1}, 1)
	if got[0] != want[0] {
		t.Fatalf("pinned reader sees %#x, want first committed image", got[0])
	}
	p.ReleaseSnapshot(pin)
}

// TestSnapshotReleaseTakesNoWriteLock holds the version read-lock — as
// a reader probing a page's chain does — while other readers pin and
// unpin snapshots with no writer around. The floor never moves, so no
// release may ask for the write lock: one that did would wait on this
// test's read-lock forever.
func TestSnapshotReleaseTakesNoWriteLock(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	mutatePage(t, p, ids[0], 0x11, 0) // a floor above zero, as after any commit

	p.verMu.RLock()
	done := make(chan struct{})
	go func() {
		defer close(done)
		var wg sync.WaitGroup
		for r := 0; r < 8; r++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < 200; i++ {
					p.ReleaseSnapshot(p.AcquireSnapshot())
				}
			}()
		}
		wg.Wait()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Error("ReleaseSnapshot blocked behind a reader: it took the version write lock with the floor unmoved")
	}
	p.verMu.RUnlock()
	<-done
}

// TestDiscardUnderSnapshotReaderPin frees a page inside the window a
// snapshot reader's ReadAt leaves open: the reader has fetched (pinned)
// the live frame and not yet raised its borrow and probed the chain. The writer
// saves the committed image and discards the frame; that used to panic
// ("discard of pinned page"). The frame must be unpublished instead,
// the reader must still get the pre-free image, and the frame must be
// reusable once the reader lets go.
func TestDiscardUnderSnapshotReaderPin(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 3)
	defer p.Close()
	id := ids[0]
	pin := p.AcquireSnapshot()
	defer p.ReleaseSnapshot(pin)

	f, err := p.fetchFrame(id, nil) // the reader's pin, taken before its chain probe
	if err != nil {
		t.Fatal(err)
	}
	p.BeginVersionBatch()
	data, err := p.Fetch(id)
	if err != nil {
		t.Fatal(err)
	}
	p.SaveVersion(id, data)
	p.Unpin(id, false)
	p.Discard(id)
	if p.Contains(id) {
		t.Fatal("discarded page still resident")
	}
	// The reader's re-check finds the saved image and drops the frame.
	if got := readAt(t, p, id, pin.LSN); got[0] != 1 {
		t.Fatalf("snapshot reader sees %#x after the free, want the saved image", got[0])
	}
	f.pins.Add(-1)
	p.PublishVersions(0)

	// Both frames of the pool are free again: two more pages fit, pinned.
	for _, other := range ids[1:] {
		if _, err := p.Fetch(other); err != nil {
			t.Fatalf("fetch after the reader unpinned: %v", err)
		}
	}
}

// TestReadAtChainAfterPinCountsOneHit borrows a resident page whose
// chain holds the image a pinned snapshot must read. The borrow pins
// the frame before it finds the entry, and must count exactly one hit,
// in the account and in the pool's stats, and leave the frame with no
// pin and no borrow.
func TestReadAtChainAfterPinCountsOneHit(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 1)
	defer p.Close()
	id := ids[0]
	pin := p.AcquireSnapshot()
	defer p.ReleaseSnapshot(pin)
	mutatePage(t, p, id, 0xAA, 0) // leaves the page resident, its old image chained
	p.ResetStats()
	var acct metrics.Account
	ref, err := p.ReadAt(id, pin.LSN, &acct)
	if err != nil {
		t.Fatal(err)
	}
	if ref.f != nil || ref.Data[0] != 1 {
		t.Fatalf("borrow of frame %v reads %#x, want the chained image 0x1", ref.f != nil, ref.Data[0])
	}
	ref.Release()
	if want := (metrics.Cost{Hits: 1}); acct.Cost != want {
		t.Fatalf("account counted %+v, want %+v", acct.Cost, want)
	}
	if s := p.Stats(); s.Fetches != 1 || s.Hits != 1 || s.Misses != 0 {
		t.Fatalf("pool stats %v, want one fetch, one hit", s)
	}
	sh := p.shardOf(id)
	fi, _ := sh.lookup(id)
	if f := sh.frames[fi]; f.pins.Load() != 0 || f.borrows.Load() != 0 {
		t.Fatalf("frame left with %d pins, %d borrows", f.pins.Load(), f.borrows.Load())
	}
}

// BenchmarkPoolReadAtHit times a snapshot borrow of a resident page:
// ReadAt at a pinned LSN with no chain entry for the page, then
// Release — the borrow every hop of a route evaluation costs when the
// whole file is buffered.
func BenchmarkPoolReadAtHit(b *testing.B) {
	const pages = 1024
	st := storage.NewMemStore(4096)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		id, err := st.Allocate()
		if err != nil {
			b.Fatal(err)
		}
		ids[i] = id
	}
	p := NewPoolShards(st, pages, 2)
	for _, id := range ids {
		if _, err := p.Fetch(id); err != nil {
			b.Fatal(err)
		}
		if err := p.Unpin(id, false); err != nil {
			b.Fatal(err)
		}
	}
	pin := p.AcquireSnapshot()
	defer p.ReleaseSnapshot(pin)
	p.ResetStats()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ref, err := p.ReadAt(ids[i%pages], pin.LSN, nil)
		if err != nil {
			b.Fatal(err)
		}
		ref.Release()
	}
	b.StopTimer()
	if s := p.Stats(); s.Hits != int64(b.N) || s.Misses != 0 {
		b.Fatalf("stats %v: the benchmark times hits", s)
	}
}
