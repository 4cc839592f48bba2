// Package buffer implements a sharded, scan-resistant buffer pool over
// a storage.Store.
//
// The paper's route-evaluation experiments assume "one buffer with the
// size of one data page"; the operation-cost experiments assume index
// pages are memory resident and data pages are fetched on demand. Pool
// reproduces both regimes: physical I/O is whatever reaches the
// underlying Store, and the pool reports hits and misses so experiments
// can report "number of data pages accessed" exactly as the paper does.
//
// The pool is the one meter of physical page I/O: once a file is open
// it is the only caller of its store's page operations, so it counts
// every read, write, allocation and free (IO) and times every read and
// write (Instrument), whatever wraps the store.
//
// For the paper's single-buffer experiments a one-shard pool behaves
// like the classic pool (NewPool builds one). For serving, NewPoolShards
// hashes pages across independently latched shards so that hits, misses
// and evictions on different shards never contend, replacement is
// clock-sweep second chance (O(1) amortized victim selection, scan
// resistant: a page fetched once and never again is first in line),
// and dirty eviction victims are written back outside the shard latch
// so a slow store write or WAL fsync cannot stall concurrent hits.
package buffer

import (
	"errors"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"sync/atomic"

	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// Common buffer errors.
var (
	ErrAllPinned  = errors.New("buffer: all frames pinned")
	ErrNotPinned  = errors.New("buffer: page not pinned")
	ErrPoolClosed = errors.New("buffer: pool is closed")
)

// Stats describes buffer pool traffic. Fetches is Hits + Misses + the
// waits that got no page: a request that waited on another goroutine's
// read counts as a fetch from the moment it starts waiting, and if that
// read fails, as neither a hit (it got no page) nor a miss (it issued
// no physical read). Misses and Flushes are the same counts as IO's
// Reads and Writes.
type Stats struct {
	Fetches   int64 // logical page requests
	Hits      int64 // requests satisfied from the pool
	Misses    int64 // requests that issued a physical read, failed ones included
	Evictions int64 // frames recycled
	Flushes   int64 // dirty pages written back
}

// HitRate returns Hits/Fetches. The boolean distinguishes a truly idle
// pool (false: no fetches yet, the rate is undefined) from a pool that
// has fetched and missed every time (true with rate 0).
func (s Stats) HitRate() (float64, bool) {
	if s.Fetches == 0 {
		return 0, false
	}
	return float64(s.Hits) / float64(s.Fetches), true
}

// String renders the counters on one line, in the same key=value style
// as storage.Stats.String. An idle pool prints hitrate=idle.
func (s Stats) String() string {
	rate := "idle"
	if hr, ok := s.HitRate(); ok {
		rate = fmt.Sprintf("%.3f", hr)
	}
	return fmt.Sprintf("fetches=%d hits=%d misses=%d evictions=%d flushes=%d hitrate=%s",
		s.Fetches, s.Hits, s.Misses, s.Evictions, s.Flushes, rate)
}

// Sub returns the change from an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Fetches:   s.Fetches - earlier.Fetches,
		Hits:      s.Hits - earlier.Hits,
		Misses:    s.Misses - earlier.Misses,
		Evictions: s.Evictions - earlier.Evictions,
		Flushes:   s.Flushes - earlier.Flushes,
	}
}

// add accumulates another snapshot (used to sum per-shard counters).
func (s Stats) add(o Stats) Stats {
	return Stats{
		Fetches:   s.Fetches + o.Fetches,
		Hits:      s.Hits + o.Hits,
		Misses:    s.Misses + o.Misses,
		Evictions: s.Evictions + o.Evictions,
		Flushes:   s.Flushes + o.Flushes,
	}
}

// poolCounters is the mutable form of Stats and of IO: one atomic per
// event, so both snapshot without tearing while parallel readers drive
// the pool. A hit adds to hits alone; waits counts the requests waiting
// on another goroutine's read, or left without a page when it failed —
// a rare path, so the hot one bumps a single shared counter. reads,
// writes, allocs and frees count the store calls the pool made: every
// ReadPage it issued (a miss), every page of a write that reached the
// store, every Allocate and Free that succeeded.
type poolCounters struct {
	hits, waits, evictions       atomic.Int64
	reads, writes, allocs, frees atomic.Int64
}

func (c *poolCounters) snapshot() Stats {
	hits, reads := c.hits.Load(), c.reads.Load()
	return Stats{
		Fetches:   hits + reads + c.waits.Load(),
		Hits:      hits,
		Misses:    reads,
		Evictions: c.evictions.Load(),
		Flushes:   c.writes.Load(),
	}
}

func (c *poolCounters) reset() {
	for _, n := range []*atomic.Int64{&c.hits, &c.waits, &c.evictions, &c.reads, &c.writes, &c.allocs, &c.frees} {
		n.Store(0)
	}
}

// frame is one buffered page. pins, ref and dirty are atomics so that
// hits — the hot path — can pin and touch a frame while holding only
// the shared shard latch. borrows counts the snapshot readers reading
// the frame in place (ReadAt); it is separate from pins, which writers
// and write-backs take too, because a writer's SaveVersion waits for it
// to drain: drainer holds the waiting writer's wake-up channel, on
// which the last borrow's release sends. loading is non-nil while the
// frame's physical read is still in flight; it is closed (under the
// exclusive latch) when the read completes, and loadErr is valid from
// then on. flushing is guarded by the shard latch: it marks a frame
// whose dirty image is being written back with the latch released, so
// the sweep must not recycle it meanwhile.
type frame struct {
	id       storage.PageID
	data     []byte
	dirty    atomic.Bool
	pins     atomic.Int64
	borrows  atomic.Int64
	drainer  atomic.Pointer[chan struct{}]
	ref      atomic.Bool // clock-sweep second-chance bit: set on hit, cleared by the sweep
	flushing bool        // write-back in flight with the latch released
	// doomed (shard latch) marks a loading frame whose page was freed
	// or re-allocated while its read was in flight: the loader must
	// drop the bytes instead of publishing a dead page.
	doomed  bool
	loading chan struct{}
	loadErr error
}

// Pool is a sharded clock-sweep buffer pool, safe for concurrent use.
// Pages hash to shards; one dense table indexed by page id maps each
// resident page to its frame, and each shard's reader-writer latch
// guards its frames and its pages' table entries. Hits take it shared
// (pin count and the reference bit are atomics), so parallel readers
// stream through buffered pages without serializing, and misses on
// different shards do not contend at all. A
// miss takes its shard latch exclusively only long enough to claim a
// victim frame and publish it as loading-in-progress, then releases it
// for the physical read — so concurrent misses overlap their I/O.
// Concurrent requests for a page being read wait on the in-flight read
// instead of issuing their own (only one physical read happens; the
// waiters count as hits when that read succeeds).
//
// Replacement is clock-sweep second chance: a hit sets the frame's
// reference bit, the sweep clears it, and a frame whose bit is already
// clear is the victim. New frames enter with the bit clear, so a scan
// that touches each page once cannot displace the re-referenced working
// set (scan resistance), and victim selection is O(1) amortized instead
// of the previous exact-LRU full scan. A dirty victim's image is
// snapshotted under the latch but written back with the latch released
// (batched with other dirty unpinned frames of the shard, one flush
// gate call per batch), so a slow device write or WAL fsync never
// blocks concurrent hits. Under no-steal (SetNoSteal) a dirty frame
// cannot be a victim at all: the sweep parks it outside the clock ring
// until a flush cleans it, so the ring holds only evictable frames and
// victim selection stays O(1) amortized whatever share of the pool is
// dirty.
//
// Frame images are protected by the pin protocol: a pinned, loading or
// flushing frame is never recycled, and writers are excluded from
// overlapping readers by the access-method level lock above.
//
// Sizing note for parallel readers: every in-flight Fetch holds a pin,
// so capacity should comfortably exceed the worker count times the
// pages a single operation keeps pinned (Get-A-successor pins two);
// otherwise bursts can exhaust a shard and fail with ErrAllPinned.
type Pool struct {
	store    storage.Store
	shards   []*shard
	capacity int // configured total frame count across shards
	// table maps a page to its frame: entry id&(tableChunk-1) of chunk
	// id>>tableChunkBits is the index of page id's frame within the
	// page's shard plus one; 0 means the page is not resident. An entry
	// is written only under its page's shard latch held exclusively and
	// read under it held shared. The chunk list grows by doubling, and a
	// chunk is added, only with every shard latch held (cover), so any
	// one shard latch makes reading them safe. Memory is 4 B per page id
	// in each chunk the pool has fetched from, plus 8 B per chunk below
	// the highest: O(file pages) for a file's dense ids, and bounded for
	// a file whose few pages sit at high ids.
	table []*[tableChunk]int32
	// noSteal forbids evicting dirty frames: a dirty page may only
	// reach the store through an explicit flush (checkpoint), never as
	// a side effect of eviction. Overflow frames absorb the pressure
	// until the next FlushAll shrinks the pool back to capacity.
	noSteal atomic.Bool
	// gate, when set, runs before any dirty page is written to the
	// store — the WAL-before-data hook (it syncs the log).
	gate atomic.Pointer[func() error]
	// readNanos and writeNanos observe the duration of every store
	// read and write the pool makes, and checksumFailures counts its
	// reads that failed with storage.ErrChecksum (Instrument); nil: not
	// observed. ResetStats leaves them: they belong to the registry.
	readNanos, writeNanos *metrics.Histogram
	checksumFailures      *metrics.Counter

	// MVCC page-version state (see version.go). verMu guards the
	// version chains and the batch bookkeeping; committed is the LSN of
	// the newest published batch. Snapshot pins live in readers, the
	// reader slots, of which slotsUsed is one past the highest ever
	// claimed; pins that find every slot taken go to snapRefs under
	// snapMu, and overflow counts them. No path holds verMu and a shard
	// latch at once: a snapshot borrow pins its frame under the shard
	// latch, drops it, and only then probes the chains, and a writer
	// waits for a frame's borrows holding neither, woken on drained
	// (capacity 1: batches, and so waits, are one at a time).
	verMu       sync.RWMutex
	versions    map[storage.PageID]*pageVersion
	pendingVers []storage.PageID
	verBatch    atomic.Bool // written under verMu
	committed   atomic.Uint64
	gcFloor     atomic.Uint64 // advanced only under verMu
	verEntries  atomic.Int64
	verBytes    atomic.Int64
	readers     [snapshotSlots]readerSlot
	slotsUsed   atomic.Int32
	snapMu      sync.Mutex
	snapRefs    map[uint64]int
	overflow    atomic.Int64
	drained     chan struct{}
}

// NewPool returns a single-shard pool with capacity frames over store.
// Capacity must be at least 1. One shard reproduces the paper's
// single-buffer page-access counts exactly; use NewPoolShards for
// serving workloads.
func NewPool(store storage.Store, capacity int) *Pool {
	return NewPoolShards(store, capacity, 1)
}

// NewPoolShards returns a pool with capacity frames spread across
// shards page-id-hash shards, each with its own latch, frame table and
// clock hand. shards is clamped to [1, capacity] so every shard owns at
// least one frame.
func NewPoolShards(store storage.Store, capacity, shards int) *Pool {
	if capacity < 1 {
		panic(fmt.Sprintf("buffer: invalid pool capacity %d", capacity))
	}
	if shards < 1 {
		shards = 1
	}
	if shards > capacity {
		shards = capacity
	}
	p := &Pool{
		store:    store,
		capacity: capacity,
		shards:   make([]*shard, shards),
		versions: make(map[storage.PageID]*pageVersion),
		snapRefs: make(map[uint64]int),
		drained:  make(chan struct{}, 1),
	}
	base, extra := capacity/shards, capacity%shards
	for i := range p.shards {
		c := base
		if i < extra {
			c++
		}
		p.shards[i] = newShard(p, c)
	}
	return p
}

// AutoShards picks a shard count for a serving pool of the given
// capacity: the number of usable CPUs, clamped so each shard keeps a
// useful number of frames and bounded to keep per-shard bookkeeping
// cheap.
func AutoShards(capacity int) int {
	n := runtime.GOMAXPROCS(0)
	if max := capacity / 8; n > max {
		n = max
	}
	if n > 64 {
		n = 64
	}
	if n < 1 {
		n = 1
	}
	return n
}

// shardOf maps a page to its shard. The multiplicative hash spreads the
// sequential page ids a bulk load produces evenly across shards.
func (p *Pool) shardOf(id storage.PageID) *shard {
	if len(p.shards) == 1 {
		return p.shards[0]
	}
	h := uint64(id) * 0x9E3779B97F4A7C15
	return p.shards[(h>>32)%uint64(len(p.shards))]
}

// The table's chunks hold 1<<tableChunkBits entries (16 KiB).
const (
	tableChunkBits = 12
	tableChunk     = 1 << tableChunkBits
)

// covers reports whether the table holds page id's entry. Caller holds
// a shard latch.
func (p *Pool) covers(id storage.PageID) bool {
	c := int(id >> tableChunkBits)
	return c < len(p.table) && p.table[c] != nil
}

// cover adds page id's chunk to the table, doubling the chunk list if
// it is too short. The table only grows, so once covered an id stays
// covered. Callers hold no shard latch: cover takes them all, in index
// order, as Reset does.
func (p *Pool) cover(id storage.PageID) {
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
	c := int(id >> tableChunkBits)
	if c >= len(p.table) {
		t := make([]*[tableChunk]int32, max(2*len(p.table), c+1))
		copy(t, p.table)
		p.table = t
	}
	if p.table[c] == nil {
		p.table[c] = new([tableChunk]int32)
	}
	for _, sh := range p.shards {
		sh.mu.Unlock()
	}
}

// Capacity returns the configured total number of frames. Under
// no-steal the pool may temporarily hold more (see SetNoSteal).
func (p *Pool) Capacity() int { return p.capacity }

// Shards returns the number of shards.
func (p *Pool) Shards() int { return len(p.shards) }

// SetNoSteal switches the eviction policy: when on, dirty frames are
// never evicted, so the only writes reaching the store are explicit
// flushes. The WAL recovery protocol depends on this: every store write
// between checkpoints is then allocator noise recovery can discard.
// The sweep parks each dirty frame it meets outside its shard's clock
// ring, where it stays resident until Flush, FlushAll, Reset or Close
// cleans it; a miss that finds the ring holding nothing evictable grows
// an overflow frame, and the next FlushAll shrinks the pool back to
// capacity. Call during setup, before concurrent use.
func (p *Pool) SetNoSteal(on bool) { p.noSteal.Store(on) }

// SetFlushGate installs a hook that runs before any dirty page is
// written to the store — the WAL-before-data rule (the hook syncs the
// log up to the page's latest mutation). Call during setup, before
// concurrent use.
func (p *Pool) SetFlushGate(gate func() error) { p.gate.Store(&gate) }

// Instrument makes the pool observe the duration of every physical
// page read it issues into read — the same interval as the miss's
// storage.read span, whatever wraps the store, a checksum included —
// and of every store write into write: one page, or one run of
// contiguous pages (see writeRuns). Every read that fails with
// storage.ErrChecksum adds one to checksumFailures. The instruments
// are the registry's, so a series keeps counting across the files of
// one store. A nil instrument is skipped. Call during setup, before
// concurrent use.
func (p *Pool) Instrument(read, write *metrics.Histogram, checksumFailures *metrics.Counter) {
	p.readNanos, p.writeNanos, p.checksumFailures = read, write, checksumFailures
}

// flushGate returns the installed WAL-before-data hook, or nil.
func (p *Pool) flushGate() func() error {
	if g := p.gate.Load(); g != nil {
		return *g
	}
	return nil
}

// EachDirty calls fn with the id and image of every dirty frame, shard
// by shard, and stops at fn's first error. The image aliases the frame
// and must not be kept after fn returns. Each shard's dirty frames are
// gathered under its latch and handed to fn after it is released: the
// pool must be no-steal and the caller must exclude every mutator (the
// access-method writer lock does this during checkpoints), so a dirty
// frame can be neither evicted nor rewritten meanwhile, while
// concurrent readers keep hitting and missing on the shard.
func (p *Pool) EachDirty(fn func(id storage.PageID, img []byte) error) error {
	var dirty []*frame
	var ids []storage.PageID
	for _, sh := range p.shards {
		dirty, ids = dirty[:0], ids[:0]
		sh.mu.RLock()
		for _, f := range sh.frames {
			if f.id != storage.InvalidPageID && f.dirty.Load() {
				dirty = append(dirty, f)
				ids = append(ids, f.id)
			}
		}
		sh.mu.RUnlock()
		for i, f := range dirty {
			if err := fn(ids[i], f.data); err != nil {
				return err
			}
		}
	}
	return nil
}

// OverflowFrames returns how many frames the pool holds above its
// configured capacity: the frames no-steal has grown since the last
// FlushAll. O(shards).
func (p *Pool) OverflowFrames() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		n += len(sh.frames) - sh.capacity
		sh.mu.RUnlock()
	}
	return n
}

// DirtyCount returns the number of dirty buffered pages.
func (p *Pool) DirtyCount() int {
	n := 0
	for _, sh := range p.shards {
		sh.mu.RLock()
		for _, f := range sh.frames {
			if f.id != storage.InvalidPageID && f.dirty.Load() {
				n++
			}
		}
		sh.mu.RUnlock()
	}
	return n
}

// Store returns the underlying page store.
func (p *Pool) Store() storage.Store { return p.store }

// Stats returns a snapshot of the pool counters summed across shards.
// Counters are atomics, so the snapshot is safe while parallel readers
// drive the pool.
func (p *Pool) Stats() Stats {
	var s Stats
	for _, sh := range p.shards {
		s = s.add(sh.stats.snapshot())
	}
	return s
}

// IO returns the physical page transfers between the pool and its
// store, summed across shards: the paper's "data pages accessed". Its
// Reads are Stats' Misses and its Writes Stats' Flushes, read from the
// same counters.
func (p *Pool) IO() storage.Stats {
	var s storage.Stats
	for _, sh := range p.shards {
		c := &sh.stats
		s.Reads += c.reads.Load()
		s.Writes += c.writes.Load()
		s.Allocs += c.allocs.Load()
		s.Frees += c.frees.Load()
	}
	return s
}

// ResetStats zeroes the counters of Stats and IO.
func (p *Pool) ResetStats() {
	for _, sh := range p.shards {
		sh.stats.reset()
	}
}

// Contains reports whether the page is currently buffered and readable,
// without touching recency or counters. A page whose physical read is
// still in flight — or just failed — is not "buffered": reporting it
// resident would make the Get-A-successor probe treat an unreadable
// page as a free hit.
func (p *Pool) Contains(id storage.PageID) bool {
	sh := p.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fi, ok := sh.lookup(id)
	return ok && sh.frames[fi].loading == nil
}

// Fetch pins the page and returns its buffer-resident image. The caller
// must Unpin exactly once per Fetch. The returned slice aliases the
// frame and is valid until Unpin.
func (p *Pool) Fetch(id storage.PageID) ([]byte, error) {
	return p.FetchTraced(id, nil)
}

// FetchTraced is Fetch with an account: the pool counts its answer —
// a hit, or a miss and the write-backs its eviction forced — into acct
// where it gives it, and a miss's physical read is timed as a
// storage.read span. A hit reads no clock. A nil account costs nothing
// beyond Fetch itself.
func (p *Pool) FetchTraced(id storage.PageID, acct *metrics.Account) ([]byte, error) {
	f, err := p.fetchFrame(id, acct)
	if err != nil {
		return nil, err
	}
	return f.data, nil
}

// fetchFrame is FetchTraced returning the pinned frame itself, so a
// borrower can drop its pin without a second table lookup.
func (p *Pool) fetchFrame(id storage.PageID, acct *metrics.Account) (*frame, error) {
	sh := p.shardOf(id)
	sh.mu.RLock()
	if sh.closed {
		sh.mu.RUnlock()
		return nil, ErrPoolClosed
	}
	if fi, ok := sh.lookup(id); ok {
		return sh.pinResident(fi, sh.mu.RUnlock, acct)
	}
	covered := p.covers(id)
	sh.mu.RUnlock()
	if !covered {
		p.cover(id)
	}
	return sh.fetchMiss(id, acct)
}

// pinHit pins page id's frame and counts the hit if the page is
// resident and loaded; otherwise it returns nil and the caller takes
// the fetch path, which may wait for a read in flight.
func (p *Pool) pinHit(id storage.PageID, acct *metrics.Account) *frame {
	sh := p.shardOf(id)
	sh.mu.RLock()
	if fi, ok := sh.lookup(id); ok && !sh.closed && sh.frames[fi].loading == nil {
		// Loaded: pinResident neither waits nor fails.
		f, _ := sh.pinResident(fi, sh.mu.RUnlock, acct)
		return f
	}
	sh.mu.RUnlock()
	return nil
}

// FetchNew pins a freshly allocated page, returning its ID and a zeroed
// buffer image without a physical read.
func (p *Pool) FetchNew() (storage.PageID, []byte, error) {
	return p.FetchNewTraced(nil)
}

// FetchNewTraced is FetchNew with an account: the allocation counts as
// a hit, and the write-backs its eviction forced as writes.
func (p *Pool) FetchNewTraced(acct *metrics.Account) (storage.PageID, []byte, error) {
	id, err := p.store.Allocate()
	if err != nil {
		return storage.InvalidPageID, nil, err
	}
	sh := p.shardOf(id)
	sh.stats.allocs.Add(1)
	sh.mu.Lock()
	if !p.covers(id) {
		sh.mu.Unlock()
		p.cover(id)
		sh.mu.Lock()
	}
	defer sh.mu.Unlock()
	if sh.closed {
		return storage.InvalidPageID, nil, ErrPoolClosed
	}
	fi, err := sh.frameForNewPage(acct)
	if err != nil {
		return storage.InvalidPageID, nil, err
	}
	// frameForNewPage may have released the latch for a dirty
	// write-back. Re-check closed (a concurrent Close can complete its
	// flush in that window; publishing a dirty frame after it would
	// never be flushed) ...
	if sh.closed {
		return storage.InvalidPageID, nil, ErrPoolClosed
	}
	// ... and displace any frame already published under this ID: a
	// freed-then-reallocated page can still be resident from a snapshot
	// reader's miss that read it after the free. Leaving it would
	// orphan one of the two frames, and the orphan's eviction would
	// unpublish the live page.
	if fj, ok := sh.lookup(id); ok && fj != fi {
		old := sh.frames[fj]
		switch {
		case old.loading != nil:
			old.doomed = true
			sh.unpublish(id)
		case old.pins.Load() == 0 && !old.flushing:
			// Unparking moves only parked frames; fi is in the ring.
			sh.evictLocked(sh.unparkLocked(fj))
		default:
			// A pinned or mid-writeback frame for a page storage just
			// allocated means the page was freed while still in use.
			panic(fmt.Sprintf("buffer: allocated page %d still in use in pool", id))
		}
	}
	f := sh.frames[fi]
	if f.data == nil {
		f.data = make([]byte, p.store.PageSize())
	} else {
		for i := range f.data {
			f.data[i] = 0
		}
	}
	f.id = id
	f.dirty.Store(true) // must be written out even if untouched
	f.pins.Store(1)
	f.ref.Store(false)
	sh.publish(id, fi)
	sh.stats.hits.Add(1) // allocation does not cost a read
	acct.Hit()
	return id, f.data, nil
}

// Unpin releases one pin on the page, marking the frame dirty when the
// caller modified it.
func (p *Pool) Unpin(id storage.PageID, dirty bool) error {
	sh := p.shardOf(id)
	sh.mu.RLock()
	defer sh.mu.RUnlock()
	fi, ok := sh.lookup(id)
	if !ok {
		return fmt.Errorf("%w: page %d", ErrNotPinned, id)
	}
	f := sh.frames[fi]
	if dirty {
		f.dirty.Store(true)
	}
	if f.pins.Add(-1) < 0 {
		f.pins.Add(1)
		return fmt.Errorf("%w: page %d", ErrNotPinned, id)
	}
	return nil
}

// Discard drops the page from the pool without writing it back, even if
// dirty. Used when a page is freed. The caller must hold no pin on the
// page itself, but two kinds of pin taken outside the access-method
// lock are tolerated. A frame whose physical read is still in flight (a
// snapshot reader's miss) is unpublished and doomed — the loader
// discards the freed bytes when the read settles. A loaded frame still
// pinned is a snapshot reader inside ReadAt, between its pin and the
// chain probe in which it finds the image this free saved and lets go
// of the frame: the frame is unpublished here, the reader drops its pin
// through the frame, and the sweep recycles it after that.
func (p *Pool) Discard(id storage.PageID) {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	fi, ok := sh.lookup(id)
	if !ok {
		return
	}
	f := sh.frames[fi]
	sh.unpublish(id)
	if f.loading != nil {
		f.doomed = true
		return
	}
	sh.unparkLocked(fi)
	f.id = storage.InvalidPageID
	f.dirty.Store(false)
	f.ref.Store(false)
}

// Free drops the page from the pool, as Discard does, and releases it
// in the store.
func (p *Pool) Free(id storage.PageID) error {
	p.Discard(id)
	if err := p.store.Free(id); err != nil {
		return err
	}
	p.shardOf(id).stats.frees.Add(1)
	return nil
}

// FlushAll writes every dirty frame back to the store. Pinned frames
// are flushed too (they stay resident and pinned). The pages go out in
// page-id order, behind a single flush-gate call, one store write per
// run of contiguous ids (see writeRuns), after each shard's eviction
// write-backs in flight have landed.
//
// The writes run with no latch held, so hits and misses on every shard
// go on meanwhile. The caller must exclude every mutator, as a
// checkpoint's writer lock does: the run images alias the frames.
// Each shard counts the flush as one write-back in flight, and the
// flushed frames are marked flushing, so no sweep recycles them and
// any other flush waits for this one.
func (p *Pool) FlushAll() error {
	var batch []wbEntry
	ends := make([]int, len(p.shards)) // shard k's entries end at ends[k]
	for k, sh := range p.shards {
		sh.mu.Lock()
		n := len(batch)
		batch = sh.collectDirtyLocked(batch)
		for _, e := range batch[n:] {
			e.f.dirty.Store(false)
			e.f.flushing = true
		}
		if len(batch) > n {
			sh.writebacks++
		}
		sh.mu.Unlock()
		ends[k] = len(batch)
	}
	// writeRuns sorts what it writes; batch stays in shard order.
	cut, werr := p.writeRuns(slices.Clone(batch))
	start := 0
	for k, sh := range p.shards {
		part := batch[start:ends[k]]
		start = ends[k]
		sh.mu.Lock()
		if len(part) > 0 {
			sh.finishWritebackLocked(part, cut)
		}
		sh.shrinkLocked()
		sh.mu.Unlock()
	}
	return werr
}

// Flush writes the page back if buffered and dirty, after the shard's
// eviction write-backs in flight (the page's own among them) have
// landed.
func (p *Pool) Flush(id storage.PageID) error {
	sh := p.shardOf(id)
	sh.mu.Lock()
	defer sh.mu.Unlock()
	sh.awaitWritebacksLocked()
	if fi, ok := sh.lookup(id); ok {
		if err := sh.flushFrameLocked(fi); err != nil {
			return err
		}
		sh.unparkLocked(fi)
	}
	return nil
}

// Reset flushes every dirty frame and then empties the pool, so the
// next fetches are cold. Experiments call this between operations to
// reproduce the paper's per-operation page-access counts. It fails if
// any frame is still pinned.
func (p *Pool) Reset() error {
	// Lock every shard (in order) so the pin check covers the whole
	// pool before any shard is cleared. A wait for a shard's write-backs
	// releases only that shard's latch, and a drained shard stays
	// latched, so after the loop none is in flight anywhere.
	for _, sh := range p.shards {
		sh.mu.Lock()
	}
	defer func() {
		for _, sh := range p.shards {
			sh.mu.Unlock()
		}
	}()
	for _, sh := range p.shards {
		sh.awaitWritebacksLocked()
	}
	for _, sh := range p.shards {
		for _, f := range sh.frames {
			if f.pins.Load() > 0 {
				return fmt.Errorf("buffer: reset with pinned page %d", f.id)
			}
		}
	}
	for _, sh := range p.shards {
		if err := sh.flushShardLocked(); err != nil {
			return err
		}
		sh.shrinkLocked()
		for _, f := range sh.frames {
			if f.id != storage.InvalidPageID {
				sh.unpublish(f.id)
				f.id = storage.InvalidPageID
				f.dirty.Store(false)
				f.ref.Store(false)
			}
		}
	}
	return nil
}

// Close flushes all dirty pages and invalidates the pool. A shard is
// marked closed before its eviction write-backs in flight are awaited,
// so the misses that started them fail with ErrPoolClosed instead of
// publishing a frame after the flush; a failed flush reopens it.
func (p *Pool) Close() error {
	for _, sh := range p.shards {
		sh.mu.Lock()
		if sh.closed {
			sh.mu.Unlock()
			continue
		}
		sh.closed = true
		err := sh.flushShardLocked()
		if err != nil {
			sh.closed = false
		}
		sh.mu.Unlock()
		if err != nil {
			return err
		}
	}
	return nil
}
