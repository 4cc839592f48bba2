package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"
	"time"

	"ccam/internal/metrics"
	"ccam/internal/storage"
)

func newPoolWithPages(t *testing.T, capacity, pages int) (*Pool, []storage.PageID) {
	t.Helper()
	st := storage.NewMemStore(128)
	ids := make([]storage.PageID, pages)
	for i := range ids {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		buf[0] = byte(i + 1) // distinguish pages
		if err := st.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return NewPool(&countingStore{Store: st}, capacity), ids
}

func TestFetchHitMiss(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 3)
	b, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 1 {
		t.Fatalf("wrong page content: %d", b[0])
	}
	p.Unpin(ids[0], false)
	// Second fetch hits.
	if _, err := p.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
	st := p.Stats()
	if st.Fetches != 2 || st.Hits != 1 || st.Misses != 1 {
		t.Fatalf("stats = %+v", st)
	}
	if r, io := p.Store().(*countingStore).reads.Load(), p.IO(); r != 1 || io.Reads != 1 {
		t.Fatalf("physical reads = %d, pool counted %d, want 1", r, io.Reads)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 3)
	fetch := func(id storage.PageID) {
		t.Helper()
		if _, err := p.Fetch(id); err != nil {
			t.Fatal(err)
		}
		if err := p.Unpin(id, false); err != nil {
			t.Fatal(err)
		}
	}
	fetch(ids[0])
	fetch(ids[1])
	fetch(ids[0]) // 0 is now MRU
	fetch(ids[2]) // must evict 1, not 0
	if !p.Contains(ids[0]) || !p.Contains(ids[2]) || p.Contains(ids[1]) {
		t.Fatalf("LRU eviction picked wrong victim: contains0=%v contains1=%v contains2=%v",
			p.Contains(ids[0]), p.Contains(ids[1]), p.Contains(ids[2]))
	}
	if p.Stats().Evictions != 1 {
		t.Fatalf("evictions = %d", p.Stats().Evictions)
	}
}

func TestDirtyWriteBackOnEviction(t *testing.T) {
	p, ids := newPoolWithPages(t, 1, 2)
	b, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b[5] = 0xAB
	p.Unpin(ids[0], true)
	// Fetching another page evicts and must flush the dirty frame.
	if _, err := p.Fetch(ids[1]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[1], false)
	raw := make([]byte, 128)
	if err := p.Store().ReadPage(ids[0], raw); err != nil {
		t.Fatal(err)
	}
	if raw[5] != 0xAB {
		t.Fatal("dirty page lost on eviction")
	}
	if p.Stats().Flushes != 1 {
		t.Fatalf("flushes = %d", p.Stats().Flushes)
	}
}

func TestPinPreventsEviction(t *testing.T) {
	p, ids := newPoolWithPages(t, 1, 2)
	if _, err := p.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	// Pool is full of pinned pages: next fetch must fail.
	if _, err := p.Fetch(ids[1]); !errors.Is(err, ErrAllPinned) {
		t.Fatalf("err = %v, want ErrAllPinned", err)
	}
	p.Unpin(ids[0], false)
	if _, err := p.Fetch(ids[1]); err != nil {
		t.Fatalf("fetch after unpin: %v", err)
	}
	p.Unpin(ids[1], false)
}

func TestUnpinErrors(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 1)
	if err := p.Unpin(ids[0], false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("unpin unfetched = %v", err)
	}
	p.Fetch(ids[0])
	p.Unpin(ids[0], false)
	if err := p.Unpin(ids[0], false); !errors.Is(err, ErrNotPinned) {
		t.Fatalf("unpin twice = %v", err)
	}
}

func TestFetchNewAndDiscard(t *testing.T) {
	p, _ := newPoolWithPages(t, 2, 0)
	id, b, err := p.FetchNew()
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range b {
		if c != 0 {
			t.Fatal("new page not zeroed")
		}
	}
	b[0] = 7
	p.Unpin(id, true)
	if err := p.Flush(id); err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 128)
	if err := p.Store().ReadPage(id, raw); err != nil {
		t.Fatal(err)
	}
	if raw[0] != 7 {
		t.Fatal("flushed content wrong")
	}
	p.Discard(id)
	if p.Contains(id) {
		t.Fatal("discarded page still buffered")
	}
	// FetchNew costs no physical read.
	if r := p.IO().Reads; r != 0 {
		t.Fatalf("reads = %d", r)
	}
}

// TestFetchNewDisplacesStaleResidentPage: a page can still be resident
// when its ID comes back from the allocator — a read outside the
// access-method lock (a snapshot reader's miss) that reached the store
// after the free republishes it. FetchNew must displace the stale frame;
// leaving it used to orphan one of the two frames, and the orphan's
// eviction then unpublished the live page, so later fetches reread
// stale disk bytes while the real (dirty) frame sat unreachable.
func TestFetchNewDisplacesStaleResidentPage(t *testing.T) {
	st := storage.NewMemStore(128)
	x, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	y, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	z, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	p := NewPool(st, 3)
	if _, err := p.Fetch(x); err != nil {
		t.Fatal(err)
	}
	p.Unpin(x, false)
	// Free x behind the pool's back: the frame stays published, exactly
	// like a stale read that settled after the free.
	if err := st.Free(x); err != nil {
		t.Fatal(err)
	}
	id, b, err := p.FetchNew()
	if err != nil {
		t.Fatal(err)
	}
	if id != x {
		t.Fatalf("allocator did not reuse the freed ID (got %d, want %d)", id, x)
	}
	b[0] = 0xEE
	p.Unpin(x, true)
	// Churn the clock over the remaining frames: evicting what used to
	// be the orphan must not unpublish the live frame.
	for _, fill := range []storage.PageID{y, z} {
		if _, err := p.Fetch(fill); err != nil {
			t.Fatal(err)
		}
		p.Unpin(fill, false)
	}
	if !p.Contains(x) {
		t.Fatal("live page unpublished by the stale frame's eviction")
	}
	reads := p.IO().Reads
	b, err = p.Fetch(x)
	if err != nil {
		t.Fatal(err)
	}
	defer p.Unpin(x, false)
	if b[0] != 0xEE {
		t.Fatalf("page %d content = %#x, want 0xEE (stale frame shadowed the live one)", x, b[0])
	}
	if p.IO().Reads != reads {
		t.Fatal("fetch of the live page cost a physical read")
	}
}

// closeDuringWriteback drives op while its dirty-victim write-back is
// blocked inside the store, starts Close in that window — it marks the
// shard closed and then waits for the write-back — then releases the
// write and returns op's error, which must be ErrPoolClosed, not a
// silently published frame in a closed pool.
func closeDuringWriteback(t *testing.T, op func(p *Pool, ids []storage.PageID) error) error {
	t.Helper()
	st := storage.NewMemStore(128)
	ids := seedPages(t, st, 2)
	bs := newBlockingStore(st)
	p := NewPool(bs, 1)
	b, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b[2] = 0x31
	p.Unpin(ids[0], true) // the only frame is dirty: the next claim writes it back
	bs.blockWrites.Store(true)
	errCh := make(chan error, 1)
	go func() { errCh <- op(p, ids) }()
	<-bs.entered // op is blocked inside the victim write-back, latch released
	closeErr := make(chan error, 1)
	go func() { closeErr <- p.Close() }()
	for sh := p.shards[0]; ; time.Sleep(time.Millisecond) {
		sh.mu.RLock()
		closed := sh.closed
		sh.mu.RUnlock()
		if closed {
			break
		}
	}
	bs.blockWrites.Store(false)
	close(bs.release)
	if err := <-closeErr; err != nil {
		t.Fatal(err)
	}
	return <-errCh
}

// TestFetchNewFailsAfterCloseDuringWriteback: FetchNew releases the
// shard latch while writing back a dirty victim; a Close completing in
// that window used to go unnoticed, so FetchNew published a new dirty
// frame into a closed (already flushed) shard and the page was never
// written out.
func TestFetchNewFailsAfterCloseDuringWriteback(t *testing.T) {
	err := closeDuringWriteback(t, func(p *Pool, _ []storage.PageID) error {
		id, _, err := p.FetchNew()
		if err == nil {
			p.Unpin(id, true)
		}
		return err
	})
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("FetchNew after close-during-writeback = %v, want ErrPoolClosed", err)
	}
}

// TestFetchMissFailsAfterCloseDuringWriteback is the demand-miss twin:
// the post-writeback path of fetchMiss must re-check closed too.
func TestFetchMissFailsAfterCloseDuringWriteback(t *testing.T) {
	err := closeDuringWriteback(t, func(p *Pool, ids []storage.PageID) error {
		_, err := p.Fetch(ids[1]) // not resident: a demand miss
		if err == nil {
			p.Unpin(ids[1], false)
		}
		return err
	})
	if !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("Fetch after close-during-writeback = %v, want ErrPoolClosed", err)
	}
}

func TestFlushAllAndClose(t *testing.T) {
	p, ids := newPoolWithPages(t, 4, 3)
	for _, id := range ids {
		b, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		b[1] = 0x55
		p.Unpin(id, true)
	}
	if err := p.Close(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		raw := make([]byte, 128)
		if err := p.Store().ReadPage(id, raw); err != nil {
			t.Fatal(err)
		}
		if raw[1] != 0x55 {
			t.Fatal("Close lost dirty page")
		}
	}
	if _, err := p.Fetch(ids[0]); !errors.Is(err, ErrPoolClosed) {
		t.Fatalf("fetch after close = %v", err)
	}
}

func TestContainsDoesNotTouchLRU(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 3)
	fetch := func(id storage.PageID) {
		t.Helper()
		if _, err := p.Fetch(id); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	fetch(ids[0])
	fetch(ids[1])
	// Probe ids[0]; must NOT make it MRU.
	if !p.Contains(ids[0]) {
		t.Fatal("Contains false negative")
	}
	before := p.Stats().Fetches
	fetch(ids[2]) // should evict ids[0] (still LRU despite Contains)
	if p.Contains(ids[0]) {
		t.Fatal("Contains perturbed LRU order")
	}
	if p.Stats().Fetches != before+1 {
		t.Fatal("Contains counted as fetch")
	}
}

func TestPoolStress(t *testing.T) {
	st := storage.NewMemStore(64)
	var ids []storage.PageID
	shadow := map[storage.PageID]byte{}
	for i := 0; i < 50; i++ {
		id, _ := st.Allocate()
		ids = append(ids, id)
		shadow[id] = 0
	}
	p := NewPool(st, 7)
	rng := rand.New(rand.NewSource(99))
	for op := 0; op < 5000; op++ {
		id := ids[rng.Intn(len(ids))]
		b, err := p.Fetch(id)
		if err != nil {
			t.Fatal(err)
		}
		if b[3] != shadow[id] {
			t.Fatalf("page %d content %d, want %d", id, b[3], shadow[id])
		}
		if rng.Intn(2) == 0 {
			shadow[id]++
			b[3] = shadow[id]
			p.Unpin(id, true)
		} else {
			p.Unpin(id, false)
		}
	}
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 64)
	for id, want := range shadow {
		if err := st.ReadPage(id, buf); err != nil {
			t.Fatal(err)
		}
		if buf[3] != want {
			t.Fatalf("page %d persisted %d, want %d", id, buf[3], want)
		}
	}
	hr, ok := p.Stats().HitRate()
	if !ok {
		t.Fatal("hit rate undefined after fetches")
	}
	if hr <= 0 || hr >= 1 {
		t.Fatalf("implausible hit rate %f", hr)
	}
}

func TestHitRateIdleVsZero(t *testing.T) {
	if _, ok := (Stats{}).HitRate(); ok {
		t.Fatal("idle pool reported a defined hit rate")
	}
	if s := (Stats{}).String(); !strings.Contains(s, "hitrate=idle") {
		t.Fatalf("idle Stats.String() = %q, want hitrate=idle", s)
	}
	all := Stats{Fetches: 4, Misses: 4}
	if hr, ok := all.HitRate(); !ok || hr != 0 {
		t.Fatalf("all-miss pool: hr=%v ok=%v, want 0 true", hr, ok)
	}
	if s := all.String(); !strings.Contains(s, "hitrate=0.000") {
		t.Fatalf("all-miss Stats.String() = %q, want hitrate=0.000", s)
	}
}

// TestAccountCountsPoolAnswers: the pool counts each answer into the
// account it is handed, where it gives the answer. A miss then a hit is {misses 1, hits 1} with one storage.read
// span (a hit is counted, not timed), and a fetch whose eviction has to
// write a dirty page back is charged that write.
func TestAccountCountsPoolAnswers(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 4)
	tr := metrics.NewTracer(8)
	at := new(metrics.Account)
	at.Begin(tr, "fetch", 0)
	if _, err := p.FetchTraced(ids[0], at); err != nil { // miss
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
	if _, err := p.FetchTraced(ids[0], at); err != nil { // hit
		t.Fatal(err)
	}
	p.Unpin(ids[0], false)
	at.Finish(nil)

	traces := tr.Recent(1)
	if len(traces) != 1 {
		t.Fatalf("got %d traces, want 1", len(traces))
	}
	if want := (metrics.Cost{Hits: 1, Misses: 1}); traces[0].Cost != want {
		t.Fatalf("miss then hit counted %+v, want %+v", traces[0].Cost, want)
	}
	if sp := traces[0].Spans; len(sp) != 1 || sp[0].Name != "storage.read" {
		t.Fatalf("spans = %+v, want one storage.read", sp)
	}

	// Dirty the resident page and fill the other frame, so the next miss
	// must steal the dirty one and write it back first.
	var other metrics.Account
	if _, err := p.FetchTraced(ids[0], &other); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[0], true)
	if _, err := p.FetchTraced(ids[1], &other); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[1], false)
	st := p.Store().(*countingStore)
	before := st.writes.Load()
	var evictor metrics.Account
	for _, id := range ids[2:] { // two misses: one of them finds the dirty frame
		if _, err := p.FetchTraced(id, &evictor); err != nil {
			t.Fatal(err)
		}
		p.Unpin(id, false)
	}
	if want := (metrics.Cost{Misses: 2, Writes: 1}); evictor.Cost != want {
		t.Fatalf("evicting fetches counted %+v, want %+v", evictor.Cost, want)
	}
	if got := st.writes.Load() - before; got != 1 {
		t.Fatalf("store saw %d writes, the account 1", got)
	}
	if want := (metrics.Cost{Hits: 1, Misses: 1}); other.Cost != want {
		t.Fatalf("the fetches before the eviction counted %+v, want %+v", other.Cost, want)
	}
}

func TestReset(t *testing.T) {
	p, ids := newPoolWithPages(t, 3, 3)
	// Dirty a page, then reset: contents must be flushed and the pool
	// emptied.
	b, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b[9] = 0x77
	p.Unpin(ids[0], true)
	p.Fetch(ids[1])
	p.Unpin(ids[1], false)
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
	for _, id := range ids {
		if p.Contains(id) {
			t.Fatalf("page %d still buffered after Reset", id)
		}
	}
	raw := make([]byte, 128)
	if err := p.Store().ReadPage(ids[0], raw); err != nil {
		t.Fatal(err)
	}
	if raw[9] != 0x77 {
		t.Fatal("dirty page lost by Reset")
	}
	// The pool is usable afterwards.
	if _, err := p.Fetch(ids[2]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[2], false)
}

func TestResetRefusesPinnedPages(t *testing.T) {
	p, ids := newPoolWithPages(t, 2, 1)
	if _, err := p.Fetch(ids[0]); err != nil {
		t.Fatal(err)
	}
	if err := p.Reset(); err == nil {
		t.Fatal("Reset succeeded with a pinned page")
	}
	p.Unpin(ids[0], false)
	if err := p.Reset(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentFetch hammers the pool from parallel readers over a
// working set larger than the pool, on a store with simulated read
// latency so misses genuinely overlap. Every fetch must observe the
// correct page image. Run with -race.
func TestConcurrentFetch(t *testing.T) {
	st := &countingStore{Store: storage.NewMemStore(128), readLatency: 50 * time.Microsecond}
	var ids []storage.PageID
	for i := 0; i < 40; i++ {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, 128)
		buf[0] = byte(i + 1)
		if err := st.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
	}
	p := NewPool(st, 16)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 200; op++ {
				i := rng.Intn(len(ids))
				b, err := p.Fetch(ids[i])
				if err != nil {
					errCh <- err
					return
				}
				if b[0] != byte(i+1) {
					errCh <- fmt.Errorf("page %d holds image of page %d", i, int(b[0])-1)
					p.Unpin(ids[i], false)
					return
				}
				if err := p.Unpin(ids[i], false); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Fetches != 8*200 || s.Hits+s.Misses != s.Fetches {
		t.Fatalf("stats don't add up: %+v", s)
	}
}

// TestConcurrentFetchSingleFlight checks that parallel requests for the
// same cold page coalesce onto one physical read: the waiters block on
// the in-flight read instead of issuing their own.
func TestConcurrentFetchSingleFlight(t *testing.T) {
	inner := storage.NewMemStore(128)
	id, err := inner.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)
	buf[0] = 0xCD
	if err := inner.WritePage(id, buf); err != nil {
		t.Fatal(err)
	}
	st := &countingStore{Store: inner, readLatency: 2 * time.Millisecond}
	p := NewPool(st, 4)
	var wg sync.WaitGroup
	errCh := make(chan error, 8)
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			b, err := p.Fetch(id)
			if err != nil {
				errCh <- err
				return
			}
			if b[0] != 0xCD {
				errCh <- fmt.Errorf("wrong image %x", b[0])
			}
			p.Unpin(id, false)
		}()
	}
	wg.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	if r := st.reads.Load(); r != 1 {
		t.Fatalf("physical reads = %d, want 1 (single-flight)", r)
	}
	if s := p.Stats(); s.Misses != 1 || s.Hits != 7 {
		t.Fatalf("stats = %+v, want 1 miss and 7 coalesced hits", s)
	}
}
