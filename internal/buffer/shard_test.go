package buffer

import (
	"errors"
	"fmt"
	"math/rand"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"ccam/internal/storage"
)

// blockingStore wraps a Store so a test can hold WritePage or ReadPage
// open: when armed, the call signals entered and then waits for release.
type blockingStore struct {
	storage.Store
	blockWrites atomic.Bool
	blockReads  atomic.Bool
	entered     chan struct{}
	release     chan struct{}
}

func newBlockingStore(inner storage.Store) *blockingStore {
	return &blockingStore{
		Store:   inner,
		entered: make(chan struct{}, 16),
		release: make(chan struct{}),
	}
}

func (b *blockingStore) WritePage(id storage.PageID, buf []byte) error {
	if b.blockWrites.Load() {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.Store.WritePage(id, buf)
}

func (b *blockingStore) WritePages(first storage.PageID, run []byte) error {
	return storage.WritePagesEach(b, first, run)
}

func (b *blockingStore) ReadPage(id storage.PageID, buf []byte) error {
	if b.blockReads.Load() {
		b.entered <- struct{}{}
		<-b.release
	}
	return b.Store.ReadPage(id, buf)
}

// countingStore wraps a Store and counts the calls that reach it: every
// read issued, failed ones included, and every page written, page
// allocated and page freed that the store took — an independent count
// to hold the pool's IO against. With readLatency set (before use) it
// sleeps that long in every read, so a test can hold reads in flight.
type countingStore struct {
	storage.Store
	readLatency                  time.Duration
	reads, writes, allocs, frees atomic.Int64
}

func (c *countingStore) ReadPage(id storage.PageID, buf []byte) error {
	if c.readLatency > 0 {
		time.Sleep(c.readLatency)
	}
	c.reads.Add(1)
	return c.Store.ReadPage(id, buf)
}

func (c *countingStore) WritePage(id storage.PageID, buf []byte) error {
	return c.WritePages(id, buf)
}

func (c *countingStore) WritePages(first storage.PageID, run []byte) error {
	if err := c.Store.WritePages(first, run); err != nil {
		return err
	}
	c.writes.Add(int64(len(run) / c.PageSize()))
	return nil
}

func (c *countingStore) Allocate() (storage.PageID, error) {
	id, err := c.Store.Allocate()
	if err == nil {
		c.allocs.Add(1)
	}
	return id, err
}

func (c *countingStore) Free(id storage.PageID) error {
	err := c.Store.Free(id)
	if err == nil {
		c.frees.Add(1)
	}
	return err
}

// io returns the counts as the pool's IO reports them.
func (c *countingStore) io() storage.Stats {
	return storage.Stats{Reads: c.reads.Load(), Writes: c.writes.Load(), Allocs: c.allocs.Load(), Frees: c.frees.Load()}
}

func seedPages(t *testing.T, st storage.Store, n int) []storage.PageID {
	t.Helper()
	ids := make([]storage.PageID, n)
	for i := range ids {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, st.PageSize())
		buf[0] = byte(i + 1)
		if err := st.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
		ids[i] = id
	}
	return ids
}

// TestEvictionWritebackDoesNotBlockHits is the regression test for the
// eviction-under-latch stall: a dirty victim's write-back (which runs
// the flush gate — a WAL fsync when attached) used to happen under the
// pool-wide exclusive latch, so one slow device write stalled every
// concurrent hit. Now the write happens with the shard latch released:
// while an eviction's WritePage is blocked, hits on other buffered
// pages must keep completing.
func TestEvictionWritebackDoesNotBlockHits(t *testing.T) {
	inner := storage.NewMemStore(128)
	bs := newBlockingStore(inner)
	ids := seedPages(t, inner, 3)
	p := NewPool(bs, 2) // one shard: the old code's worst case

	// Make ids[0] the dirty clock victim and ids[1] a clean resident.
	b, err := p.Fetch(ids[0])
	if err != nil {
		t.Fatal(err)
	}
	b[5] = 0xAB
	if err := p.Unpin(ids[0], true); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Fetch(ids[1]); err != nil {
		t.Fatal(err)
	}
	if err := p.Unpin(ids[1], false); err != nil {
		t.Fatal(err)
	}

	bs.blockWrites.Store(true)
	evictDone := make(chan error, 1)
	go func() {
		// Misses, sweeps to dirty ids[0], starts the write-back.
		_, err := p.Fetch(ids[2])
		if err == nil {
			err = p.Unpin(ids[2], false)
		}
		evictDone <- err
	}()
	select {
	case <-bs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("eviction write-back never reached the store")
	}

	// The write-back is now blocked inside WritePage. Concurrent hits
	// on the other resident page must complete meanwhile.
	hitsDone := make(chan error, 1)
	go func() {
		for i := 0; i < 100; i++ {
			if _, err := p.Fetch(ids[1]); err != nil {
				hitsDone <- err
				return
			}
			if err := p.Unpin(ids[1], false); err != nil {
				hitsDone <- err
				return
			}
		}
		hitsDone <- nil
	}()
	select {
	case err := <-hitsDone:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("hits blocked behind an eviction write-back")
	}

	bs.blockWrites.Store(false)
	close(bs.release)
	if err := <-evictDone; err != nil {
		t.Fatal(err)
	}
	raw := make([]byte, 128)
	if err := inner.ReadPage(ids[0], raw); err != nil {
		t.Fatal(err)
	}
	if raw[5] != 0xAB {
		t.Fatal("dirty victim lost on out-of-latch write-back")
	}
	if s := p.Stats(); s.Flushes < 1 || s.Evictions < 1 {
		t.Fatalf("stats = %+v, want at least one flush and eviction", s)
	}
}

// TestEvictionWritebackBatchesBehindOneGate: evicting one dirty victim
// writes back the shard's other dirty unpinned frames too, behind a
// single flush-gate call.
func TestEvictionWritebackBatchesBehindOneGate(t *testing.T) {
	inner := storage.NewMemStore(128)
	ids := seedPages(t, inner, 7)
	st := &countingStore{Store: inner}
	p := NewPool(st, 6)
	var gateCalls atomic.Int64
	p.SetFlushGate(func() error { gateCalls.Add(1); return nil })

	for i := 0; i < 6; i++ {
		b, err := p.Fetch(ids[i])
		if err != nil {
			t.Fatal(err)
		}
		b[2] = byte(0xC0 + i)
		if err := p.Unpin(ids[i], true); err != nil {
			t.Fatal(err)
		}
	}
	// Miss: the sweep picks a dirty victim, and the write-back batch
	// collects every dirty unpinned frame of the shard.
	if _, err := p.Fetch(ids[6]); err != nil {
		t.Fatal(err)
	}
	p.Unpin(ids[6], false)
	if got := gateCalls.Load(); got != 1 {
		t.Fatalf("flush gate ran %d times for one eviction batch, want 1", got)
	}
	if s := p.Stats(); s.Flushes != 6 {
		t.Fatalf("flushes = %d, want 6 (batched write-back)", s.Flushes)
	}
	if w := st.writes.Load(); w != 6 {
		t.Fatalf("store writes = %d, want 6", w)
	}
}

// TestFlushWaitsForEvictionWriteback: an eviction write-back clears its
// victim's dirty bit and then writes with the shard latch released, so
// a flush that ran meanwhile found nothing to write and returned before
// the victim's image reached the store — and a re-dirtied page could be
// flushed ahead of its older image. FlushAll, Flush and Close must wait
// for the shard's write-backs in flight.
func TestFlushWaitsForEvictionWriteback(t *testing.T) {
	for _, tc := range []struct {
		name  string
		flush func(p *Pool, id storage.PageID) error
	}{
		{"FlushAll", func(p *Pool, _ storage.PageID) error { return p.FlushAll() }},
		{"Flush", func(p *Pool, id storage.PageID) error { return p.Flush(id) }},
		{"Close", func(p *Pool, _ storage.PageID) error { return p.Close() }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			inner := storage.NewMemStore(128)
			ids := seedPages(t, inner, 2)
			bs := newBlockingStore(inner)
			p := NewPool(bs, 1)
			b, err := p.Fetch(ids[0])
			if err != nil {
				t.Fatal(err)
			}
			b[7] = 0x5A
			if err := p.Unpin(ids[0], true); err != nil {
				t.Fatal(err)
			}
			bs.blockWrites.Store(true)
			missDone := make(chan error, 1)
			go func() {
				// The miss evicts ids[0]; its write-back blocks in the store.
				_, err := p.Fetch(ids[1])
				if err == nil {
					err = p.Unpin(ids[1], false)
				}
				missDone <- err
			}()
			<-bs.entered
			flushDone := make(chan error, 1)
			go func() { flushDone <- tc.flush(p, ids[0]) }()
			select {
			case err := <-flushDone:
				t.Fatalf("%s returned (err %v) while page %d's eviction write-back was in flight", tc.name, err, ids[0])
			case <-time.After(50 * time.Millisecond):
			}
			bs.blockWrites.Store(false)
			close(bs.release)
			if err := <-flushDone; err != nil {
				t.Fatal(err)
			}
			if err := <-missDone; err != nil && !errors.Is(err, ErrPoolClosed) {
				t.Fatal(err)
			}
			raw := make([]byte, 128)
			if err := inner.ReadPage(ids[0], raw); err != nil {
				t.Fatal(err)
			}
			if raw[7] != 0x5A {
				t.Fatalf("store page %d byte 7 = %#x after %s, want 0x5a", ids[0], raw[7], tc.name)
			}
		})
	}
}

// TestContainsExcludesLoadingAndFailed: a page whose physical read is
// still in flight, or whose read just failed, is not resident — the
// Get-A-successor probe must not treat an unreadable page as a free
// hit.
func TestContainsExcludesLoadingAndFailed(t *testing.T) {
	inner := storage.NewMemStore(128)
	bs := newBlockingStore(inner)
	ids := seedPages(t, inner, 2)
	p := NewPool(bs, 4)

	bs.blockReads.Store(true)
	fetchDone := make(chan error, 1)
	go func() {
		_, err := p.Fetch(ids[0])
		if err == nil {
			err = p.Unpin(ids[0], false)
		}
		fetchDone <- err
	}()
	select {
	case <-bs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("fetch never reached the store")
	}
	if p.Contains(ids[0]) {
		t.Fatal("Contains reported an in-flight read as resident")
	}
	bs.blockReads.Store(false)
	close(bs.release)
	if err := <-fetchDone; err != nil {
		t.Fatal(err)
	}
	if !p.Contains(ids[0]) {
		t.Fatal("Contains false negative after the read settled")
	}

	// Fault injection: a failed read must leave the page non-resident.
	fs := storage.NewFaultStore(storage.NewMemStore(128), 1)
	fid, err := fs.Inner().Allocate()
	if err != nil {
		t.Fatal(err)
	}
	fs.FailAfter(storage.FaultRead, 0)
	pf := NewPool(fs, 4)
	if _, err := pf.Fetch(fid); err == nil {
		t.Fatal("fetch through injected read fault succeeded")
	}
	if pf.Contains(fid) {
		t.Fatal("Contains reported a failed read as resident")
	}
	fs.Clear()
	if _, err := pf.Fetch(fid); err != nil {
		t.Fatal(err)
	}
	pf.Unpin(fid, false)
	if !pf.Contains(fid) {
		t.Fatal("page not resident after a successful retry")
	}
}

// TestDiscardDuringPrefetchLoad is the regression test for the
// free-during-load crash (named for the prefetcher whose pins first
// exposed it; a snapshot reader's miss takes the same pin today):
// Discard of a page whose physical read is still in flight, outside the
// access-method lock, used to panic ("discard of pinned page"). Discard
// must instead doom the frame so the loader drops the dead bytes when
// the read settles.
func TestDiscardDuringPrefetchLoad(t *testing.T) {
	inner := storage.NewMemStore(128)
	bs := newBlockingStore(inner)
	ids := seedPages(t, inner, 2)
	p := NewPool(bs, 4)
	defer p.Close()

	bs.blockReads.Store(true)
	fetchDone := make(chan error, 1)
	go func() {
		_, err := p.Fetch(ids[1])
		fetchDone <- err
	}()
	select {
	case <-bs.entered:
	case <-time.After(5 * time.Second):
		t.Fatal("fetch never reached the store")
	}

	// The page is freed while its read is in flight.
	p.Discard(ids[1])
	if p.Contains(ids[1]) {
		t.Fatal("discarded page still reported resident")
	}
	bs.blockReads.Store(false)
	close(bs.release)
	if err := <-fetchDone; err == nil {
		t.Fatal("fetch of a page freed under its read returned the dead bytes")
	}
	if p.Contains(ids[1]) {
		t.Fatal("doomed load published a freed page")
	}

	// The pool stays fully usable, and a later fetch of the ID performs
	// a fresh physical read rather than serving stale bytes.
	before := p.IO().Reads
	b, err := p.Fetch(ids[1])
	if err != nil {
		t.Fatal(err)
	}
	if b[0] != 2 {
		t.Fatalf("refetched page content = %d, want 2", b[0])
	}
	p.Unpin(ids[1], false)
	if p.IO().Reads != before+1 {
		t.Fatal("fetch after discard did not re-read the store")
	}
}

// TestStatsAccounting pins the counter fixes: waiters coalesced onto a
// failed read count as neither hits nor misses, overflow-frame shrink
// counts the pages it unpublishes as evictions, and every cold fetch is
// one miss whose read holds no shard latch. It also pins IO, the
// pool's count of its store calls, against a count kept by the store
// itself: a read is counted when issued, so one the store fails is a
// read and a miss all the same.
func TestStatsAccounting(t *testing.T) {
	cases := []struct {
		name string
		run  func(t *testing.T)
	}{
		{"IO counts every store call once", func(t *testing.T) {
			inner := storage.NewMemStore(128)
			ids := seedPages(t, inner, 3)
			a, b, c := ids[0], ids[1], ids[2]
			fs := storage.NewFaultStore(inner, 1)
			st := &countingStore{Store: fs}
			p := NewPool(st, 2)
			var want storage.Stats
			check := func(step string) {
				t.Helper()
				if got := p.IO(); got != want {
					t.Fatalf("after %s: IO = %v, want %v", step, got, want)
				}
				if got := st.io(); got != want {
					t.Fatalf("after %s: the store saw %v, the pool counted %v", step, got, want)
				}
				if s := p.Stats(); s.Misses != want.Reads || s.Flushes != want.Writes {
					t.Fatalf("after %s: stats = %+v, want misses=%d flushes=%d", step, s, want.Reads, want.Writes)
				}
			}
			fetch := func(id storage.PageID, dirty bool) {
				t.Helper()
				if _, err := p.Fetch(id); err != nil {
					t.Fatal(err)
				}
				if err := p.Unpin(id, dirty); err != nil {
					t.Fatal(err)
				}
			}

			fetch(a, false)
			want.Reads++
			check("a miss")
			fetch(a, false)
			check("a hit")
			n, _, err := p.FetchNew()
			if err != nil {
				t.Fatal(err)
			}
			p.Unpin(n, true)
			want.Allocs++
			check("FetchNew")
			// Both frames are taken; a's hit bought it a second chance,
			// so the miss evicts the new page and writes it back first.
			fetch(b, false)
			want.Reads++
			want.Writes++
			check("an eviction write-back")
			if err := p.Free(n); err != nil {
				t.Fatal(err)
			}
			want.Frees++
			check("Free")
			fetch(b, true)
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			want.Writes++
			check("FlushAll")
			fetch(a, true)
			if err := p.Reset(); err != nil {
				t.Fatal(err)
			}
			want.Writes++
			check("Reset")
			fs.FailAfter(storage.FaultRead, 0)
			if _, err := p.Fetch(c); !errors.Is(err, storage.ErrFaultInjected) {
				t.Fatalf("fetch through a failing read = %v, want ErrFaultInjected", err)
			}
			fs.Clear()
			want.Reads++
			check("a failed read")
			// A fetch that finds every frame pinned issues no read, so
			// it is neither a miss nor a fetch.
			for _, id := range []storage.PageID{a, b} {
				if _, err := p.Fetch(id); err != nil {
					t.Fatal(err)
				}
				want.Reads++
			}
			fetches := p.Stats().Fetches
			if _, err := p.Fetch(c); !errors.Is(err, ErrAllPinned) {
				t.Fatalf("fetch with every frame pinned = %v, want ErrAllPinned", err)
			}
			check("a fetch that got no frame")
			if got := p.Stats().Fetches; got != fetches {
				t.Fatalf("a fetch that got no frame counted: fetches %d -> %d", fetches, got)
			}
			for _, id := range []storage.PageID{a, b} {
				if err := p.Unpin(id, false); err != nil {
					t.Fatal(err)
				}
			}
			p.ResetStats()
			if io, s := p.IO(), p.Stats(); io != (storage.Stats{}) || s != (Stats{}) {
				t.Fatalf("after ResetStats: IO = %v, stats = %+v, want zero", io, s)
			}
		}},
		{"waiters on failed read are not hits", func(t *testing.T) {
			inner := storage.NewMemStore(128)
			fs := storage.NewFaultStore(inner, 1)
			bs := newBlockingStore(fs) // block first, then fail in fs
			id, err := inner.Allocate()
			if err != nil {
				t.Fatal(err)
			}
			fs.FailAfter(storage.FaultRead, 0)
			p := NewPool(bs, 4)

			// One loader blocks inside the (failing) read...
			bs.blockReads.Store(true)
			errs := make(chan error, 8)
			go func() {
				_, err := p.Fetch(id)
				errs <- err
			}()
			select {
			case <-bs.entered:
			case <-time.After(5 * time.Second):
				t.Fatal("loader never reached the store")
			}
			// ...and 7 waiters coalesce onto it.
			var wg sync.WaitGroup
			for i := 0; i < 7; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					_, err := p.Fetch(id)
					errs <- err
				}()
			}
			// Let the waiters reach the in-flight read before releasing
			// it: they all must observe the same failure.
			deadline := time.Now().Add(5 * time.Second)
			for p.Stats().Fetches < 8 && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			bs.blockReads.Store(false)
			close(bs.release)
			wg.Wait()
			for i := 0; i < 8; i++ {
				if err := <-errs; err == nil {
					t.Fatal("a fetch of the unreadable page succeeded")
				}
			}
			s := p.Stats()
			if s.Fetches != 8 || s.Misses != 1 || s.Hits != 0 {
				t.Fatalf("stats = %+v, want fetches=8 misses=1 hits=0", s)
			}
			if p.Contains(id) {
				t.Fatal("unreadable page left resident")
			}
		}},
		{"overflow shrink counts evictions", func(t *testing.T) {
			st := storage.NewMemStore(128)
			ids := seedPages(t, st, 3)
			p := NewPool(st, 2)
			p.SetNoSteal(true)
			// Dirty three pages in a two-frame pool: the third fetch
			// must grow an overflow frame instead of stealing.
			for _, id := range ids {
				b, err := p.Fetch(id)
				if err != nil {
					t.Fatal(err)
				}
				b[1] = 0x11
				if err := p.Unpin(id, true); err != nil {
					t.Fatal(err)
				}
			}
			if s := p.Stats(); s.Evictions != 0 {
				t.Fatalf("no-steal growth evicted: %+v", s)
			}
			// FlushAll cleans the frames and shrinks the pool back to
			// capacity, unpublishing the overflow frame's page — that
			// is an eviction: its next fetch is a physical read.
			if err := p.FlushAll(); err != nil {
				t.Fatal(err)
			}
			s := p.Stats()
			if s.Evictions != 1 {
				t.Fatalf("evictions = %d after overflow shrink, want 1", s.Evictions)
			}
			resident := 0
			for _, id := range ids {
				if p.Contains(id) {
					resident++
				}
			}
			if resident != 2 {
				t.Fatalf("%d pages resident after shrink, want 2", resident)
			}
		}},
		{"successful waiters are hits", func(t *testing.T) {
			st := &countingStore{Store: storage.NewMemStore(128), readLatency: 2 * time.Millisecond}
			ids := seedPages(t, st, 1)
			p := NewPool(st, 4)
			var wg sync.WaitGroup
			for i := 0; i < 8; i++ {
				wg.Add(1)
				go func() {
					defer wg.Done()
					if _, err := p.Fetch(ids[0]); err == nil {
						p.Unpin(ids[0], false)
					}
				}()
			}
			wg.Wait()
			s := p.Stats()
			if s.Fetches != 8 || s.Misses != 1 || s.Hits != 7 {
				t.Fatalf("stats = %+v, want fetches=8 misses=1 hits=7", s)
			}
		}},
		{"a miss releases the shard latch for its read", func(t *testing.T) {
			// 64 cold pages of ONE shard, fetched by 8 goroutines over a
			// store that sleeps 2 ms per read: behind a latch held across
			// the read the sleeps queue up to >= 128 ms (time.Sleep
			// guarantees that much); released, they overlap eight at a
			// time. This is the invariant the retired pool-scale
			// experiment's wall-clock speedup gate stood for.
			const lat, readers, each = 2 * time.Millisecond, 8, 8
			st := &countingStore{Store: storage.NewMemStore(128), readLatency: lat}
			p := NewPoolShards(st, 4*readers*each, 4)
			var ids []storage.PageID
			for _, id := range seedPages(t, st, 16*readers*each) {
				if p.shardOf(id) == p.shards[0] && len(ids) < readers*each {
					ids = append(ids, id)
				}
			}
			if len(ids) != readers*each {
				t.Fatalf("only %d seeded pages hash to shard 0", len(ids))
			}
			start := time.Now()
			var wg sync.WaitGroup
			for r := 0; r < readers; r++ {
				wg.Add(1)
				go func(mine []storage.PageID) {
					defer wg.Done()
					for _, id := range mine {
						if _, err := p.Fetch(id); err != nil {
							t.Error(err)
							return
						}
						p.Unpin(id, false)
					}
				}(ids[r*each : (r+1)*each])
			}
			wg.Wait()
			if elapsed, serial := time.Since(start), readers*each*lat; elapsed >= serial/2 {
				t.Fatalf("64 cold fetches took %v, want under half of the serial %v", elapsed, serial)
			}
			if s := p.Stats(); s.Misses != readers*each {
				t.Fatalf("stats = %+v, want %d misses", s, readers*each)
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) { tc.run(t) })
	}
}

// TestNewPoolShardsShape checks capacity splitting and clamping.
func TestNewPoolShardsShape(t *testing.T) {
	st := storage.NewMemStore(128)
	p := NewPoolShards(st, 10, 4)
	if p.Shards() != 4 || p.Capacity() != 10 {
		t.Fatalf("shards=%d capacity=%d, want 4 and 10", p.Shards(), p.Capacity())
	}
	total := 0
	for _, sh := range p.shards {
		if sh.capacity < 2 || sh.capacity > 3 {
			t.Fatalf("uneven shard capacity %d", sh.capacity)
		}
		total += sh.capacity
	}
	if total != 10 {
		t.Fatalf("shard capacities sum to %d, want 10", total)
	}
	// More shards than frames: clamped so each shard owns a frame.
	if p := NewPoolShards(st, 3, 16); p.Shards() != 3 {
		t.Fatalf("shards = %d, want clamp to 3", p.Shards())
	}
	if n := AutoShards(1024); n < 1 {
		t.Fatalf("AutoShards = %d", n)
	}
	if n := AutoShards(8); n != 1 {
		t.Fatalf("AutoShards(8) = %d, want 1", n)
	}
}

// TestShardedPoolConcurrent is the race-enabled mixed workload over a
// sharded pool: parallel readers (hits, misses, coalesced waits,
// evictions) on one key range, one mutator dirtying, discarding and
// checkpointing a disjoint range under no-steal with a flush gate, and
// a prober hammering Contains. Run with -race.
func TestShardedPoolConcurrent(t *testing.T) {
	st := &countingStore{Store: storage.NewMemStore(64), readLatency: 20 * time.Microsecond}
	readIDs := seedPages(t, st, 40)
	writeIDs := make([]storage.PageID, 10)
	for i := range writeIDs {
		id, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if err := st.WritePage(id, make([]byte, 64)); err != nil {
			t.Fatal(err)
		}
		writeIDs[i] = id
	}
	p := NewPoolShards(st, 24, 8)
	p.SetNoSteal(true)
	var gateCalls atomic.Int64
	p.SetFlushGate(func() error { gateCalls.Add(1); return nil })

	var workers, probers sync.WaitGroup
	errCh := make(chan error, 16)
	stop := make(chan struct{})

	for w := 0; w < 6; w++ {
		workers.Add(1)
		go func(w int) {
			defer workers.Done()
			rng := rand.New(rand.NewSource(int64(w)))
			for op := 0; op < 400; op++ {
				i := rng.Intn(len(readIDs))
				b, err := p.Fetch(readIDs[i])
				if err != nil {
					errCh <- err
					return
				}
				if b[0] != byte(i+1) {
					errCh <- fmt.Errorf("page %d holds image of page %d", i, int(b[0])-1)
					p.Unpin(readIDs[i], false)
					return
				}
				if err := p.Unpin(readIDs[i], false); err != nil {
					errCh <- err
					return
				}
			}
		}(w)
	}

	// The single mutator: dirties its own pages, occasionally discards
	// one or checkpoints the pool. It is the only goroutine writing
	// frame bytes, matching the access-method exclusive-lock contract.
	workers.Add(1)
	go func() {
		defer workers.Done()
		rng := rand.New(rand.NewSource(99))
		shadow := make(map[storage.PageID]byte)
		for op := 0; op < 300; op++ {
			id := writeIDs[rng.Intn(len(writeIDs))]
			b, err := p.Fetch(id)
			if err != nil {
				errCh <- err
				return
			}
			if b[3] != shadow[id] {
				errCh <- fmt.Errorf("mutator page %d content %d, want %d", id, b[3], shadow[id])
				p.Unpin(id, true)
				return
			}
			shadow[id]++
			b[3] = shadow[id]
			if err := p.Unpin(id, true); err != nil {
				errCh <- err
				return
			}
			switch {
			case op%67 == 13:
				// Flush-then-discard: the store keeps the shadow value,
				// so the next fetch re-reads it unchanged.
				did := writeIDs[rng.Intn(len(writeIDs))]
				if err := p.Flush(did); err != nil {
					errCh <- err
					return
				}
				p.Discard(did)
			case op%41 == 7:
				if err := p.FlushAll(); err != nil {
					errCh <- err
					return
				}
			}
		}
		if err := p.FlushAll(); err != nil {
			errCh <- err
		}
	}()

	// Contains prober: must never block and never perturb the counters.
	probers.Add(1)
	go func() {
		defer probers.Done()
		rng := rand.New(rand.NewSource(7))
		for {
			select {
			case <-stop:
				return
			default:
			}
			p.Contains(readIDs[rng.Intn(len(readIDs))])
		}
	}()

	workers.Wait()
	close(stop)
	probers.Wait()
	close(errCh)
	for err := range errCh {
		t.Fatal(err)
	}
	s := p.Stats()
	if s.Fetches != s.Hits+s.Misses {
		t.Fatalf("accounting drifted without failures: %+v", s)
	}
	if gateCalls.Load() == 0 {
		t.Fatal("flush gate never ran despite dirty checkpoints")
	}
	// Durability: every surviving dirty page must round-trip.
	if err := p.FlushAll(); err != nil {
		t.Fatal(err)
	}
	if got := p.DirtyCount(); got != 0 {
		t.Fatalf("dirty pages after FlushAll: %d", got)
	}
	// The pool shrank back to capacity after checkpoints.
	for _, sh := range p.shards {
		if len(sh.frames) > sh.capacity {
			t.Fatalf("shard kept %d overflow frames after FlushAll", len(sh.frames)-sh.capacity)
		}
	}
}

// BenchmarkFetchMissNoSteal times a miss on a no-steal pool whose
// resident pages are 0, 50 or 99 % dirty. Every fetch misses: the cold
// set is four times the pool. The dirty pages cannot be evicted, so the
// miss's frame search must not pay for passing them.
func BenchmarkFetchMissNoSteal(b *testing.B) {
	const capacity = 1024
	for _, dirtyPct := range []int{0, 50, 99} {
		b.Run(fmt.Sprintf("dirty=%d%%", dirtyPct), func(b *testing.B) {
			st := storage.NewMemStore(4096)
			ids := make([]storage.PageID, 5*capacity)
			for i := range ids {
				id, err := st.Allocate()
				if err != nil {
					b.Fatal(err)
				}
				ids[i] = id
			}
			p := NewPool(st, capacity)
			p.SetNoSteal(true)
			for i, id := range ids[:capacity] {
				if _, err := p.Fetch(id); err != nil {
					b.Fatal(err)
				}
				if err := p.Unpin(id, i*100 < dirtyPct*capacity); err != nil {
					b.Fatal(err)
				}
			}
			cold := ids[capacity:]
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				id := cold[i%len(cold)]
				if _, err := p.Fetch(id); err != nil {
					b.Fatal(err)
				}
				if err := p.Unpin(id, false); err != nil {
					b.Fatal(err)
				}
			}
			b.StopTimer()
			if s := p.Stats(); s.Hits != 0 {
				b.Fatalf("%d fetches hit; the benchmark times misses", s.Hits)
			}
		})
	}
}
