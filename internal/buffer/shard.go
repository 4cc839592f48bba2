package buffer

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"time"

	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// writebackBatch bounds how many dirty unpinned frames one eviction
// writes back behind a single flush-gate call. Batching amortizes the
// gate (a WAL fsync when attached) and leaves the shard with clean
// victims for the next few evictions.
const writebackBatch = 8

// shard is one independently latched slice of the pool: its own
// frames, clock hand and counters. Pages are assigned to shards by
// Pool.shardOf and never move; the pool's table maps a page to its
// frame's index here, and the shard latch guards the page's entry.
//
// frames[:live] is the clock ring; frames[live:] are parked. Under
// no-steal the sweep parks every unpinned dirty frame it meets — such a
// frame cannot be evicted before the next checkpoint cleans it — so the
// ring holds only frames a miss may take and victim selection stays
// O(1) amortized however much of the shard is dirty. A parked frame
// stays resident and hits on it as before; flushShardLocked (FlushAll,
// Reset, Close) returns every frame to the ring, and Flush or Discard
// of a parked frame returns that one. Without no-steal nothing is
// parked and live == len(frames).
type shard struct {
	pool *Pool
	mu   sync.RWMutex
	// frames holds pointers: parking, unparking and growth move a frame
	// to another index (the table follows it), but a frame reference
	// held across a latch release stays valid.
	frames   []*frame
	live     int // frames[:live] is the clock ring
	capacity int // configured frame count; len(frames) may exceed it under no-steal
	hand     int // clock-sweep position in the ring
	closed   bool
	// writebacks counts the eviction write-back batches in flight with
	// the latch released; wbDone (on mu) is broadcast when it drops to
	// zero. A flush waits for them first: their frames are no longer
	// dirty, yet their images have not reached the store.
	writebacks int
	wbDone     sync.Cond
	stats      poolCounters
}

func newShard(p *Pool, capacity int) *shard {
	sh := &shard{
		pool:     p,
		capacity: capacity,
		live:     capacity,
		frames:   make([]*frame, capacity),
	}
	sh.wbDone.L = &sh.mu
	for i := range sh.frames {
		sh.frames[i] = &frame{id: storage.InvalidPageID}
	}
	return sh
}

// lookup returns the index of page id's frame. Caller holds the latch,
// shared or exclusive.
func (sh *shard) lookup(id storage.PageID) (int, bool) {
	if t, c := sh.pool.table, int(id>>tableChunkBits); c < len(t) && t[c] != nil {
		if e := t[c][id&(tableChunk-1)]; e != 0 {
			return int(e - 1), true
		}
	}
	return 0, false
}

// publish makes frame fi page id's frame. Caller holds the exclusive
// latch, and the table covers id (Pool.cover).
func (sh *shard) publish(id storage.PageID, fi int) {
	sh.pool.table[id>>tableChunkBits][id&(tableChunk-1)] = int32(fi + 1)
}

// unpublish removes page id's table entry. Caller holds the exclusive
// latch, and the entry is set.
func (sh *shard) unpublish(id storage.PageID) {
	sh.pool.table[id>>tableChunkBits][id&(tableChunk-1)] = 0
}

// pinResident pins the table-resident frame fi and returns it, waiting
// out an in-flight read if there is one. Called with the shard
// latch held (shared or exclusive); releases it via unlock. The
// reference bit is written only when clear, as PageRef.Touch does. A
// loaded frame's hit is counted once;
// a waiter counts as waiting until the read settles, and then as a hit
// — or, if the loader failed, it stays counted as a wait that got no
// page and issued no read (see Stats).
func (sh *shard) pinResident(fi int, unlock func(), acct *metrics.Account) (*frame, error) {
	f := sh.frames[fi]
	f.pins.Add(1)
	if !f.ref.Load() {
		f.ref.Store(true) // second chance for the sweep
	}
	ch := f.loading
	unlock()
	if ch != nil {
		sh.stats.waits.Add(1)
		<-ch
		// loadErr was written before the channel close and the frame
		// cannot be recycled while our pin is held, so this read is
		// ordered. On failure the loader already unpublished the page;
		// we only drop our pin.
		if err := f.loadErr; err != nil {
			f.pins.Add(-1)
			return nil, err
		}
		sh.stats.waits.Add(-1)
	}
	sh.stats.hits.Add(1)
	acct.Hit()
	return f, nil
}

// fetchMiss claims a frame for the page and performs the physical read
// with the latch released, so concurrent misses overlap their I/O. The
// miss is counted — in the pool and in the account — where the read is
// issued: a miss is a data read, whether or not the store returns the
// page.
func (sh *shard) fetchMiss(id storage.PageID, acct *metrics.Account) (*frame, error) {
	sh.mu.Lock()
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrPoolClosed
	}
	// Another goroutine may have faulted the page in (or begun to)
	// while we upgraded the latch.
	if fi, ok := sh.lookup(id); ok {
		return sh.pinResident(fi, sh.mu.Unlock, acct)
	}
	fi, err := sh.frameForNewPage(acct)
	if err != nil {
		sh.mu.Unlock()
		return nil, err
	}
	// frameForNewPage may have released the latch to write back a dirty
	// victim; a concurrent Close can have completed its flush in that
	// window, and the page can have been faulted in meanwhile (the
	// claimed frame then just stays free).
	if sh.closed {
		sh.mu.Unlock()
		return nil, ErrPoolClosed
	}
	if fj, ok := sh.lookup(id); ok {
		return sh.pinResident(fj, sh.mu.Unlock, acct)
	}
	f := sh.frames[fi]
	if f.data == nil {
		f.data = make([]byte, sh.pool.store.PageSize())
	}
	f.id = id
	f.dirty.Store(false)
	f.pins.Store(1)
	f.ref.Store(false) // scan resistance: first reference earns no second chance
	ch := make(chan struct{})
	f.loading = ch
	f.loadErr = nil
	sh.publish(id, fi)
	sh.mu.Unlock()

	sh.stats.reads.Add(1)
	acct.Miss()
	tok := acct.BeginSpan("storage.read", sh.pool.readNanos)
	readErr := sh.pool.store.ReadPage(id, f.data)
	tok.End()
	if errors.Is(readErr, storage.ErrChecksum) {
		sh.pool.checksumFailures.Inc()
	}

	sh.mu.Lock()
	var result error
	switch {
	case readErr != nil:
		result = fmt.Errorf("buffer: fetch page %d: %w", id, readErr)
	case f.doomed:
		// The page was freed (Discard) while our read was in flight;
		// the bytes are dead and must not be published.
		result = fmt.Errorf("buffer: page %d freed during fetch", id)
	}
	if result != nil {
		f.loadErr = result
		sh.unpublishLoadedLocked(f, id)
		f.pins.Add(-1) // waiters drop their own pins on wake-up
	}
	f.doomed = false
	f.loading = nil
	close(ch)
	sh.mu.Unlock()
	if result != nil {
		return nil, result
	}
	return f, nil
}

// unpublishLoadedLocked retracts frame f after a failed or doomed
// load. The table entry is removed only if it still points at this
// frame: a doomed page's ID may have been re-allocated and published
// to another frame meanwhile (FetchNew), and that live mapping must
// survive. The frame is compared by pointer, because parking can have
// moved it to another index while the read was in flight. Caller holds
// the exclusive latch.
func (sh *shard) unpublishLoadedLocked(f *frame, id storage.PageID) {
	if fj, ok := sh.lookup(id); ok && sh.frames[fj] == f {
		sh.unpublish(id)
	}
	f.id = storage.InvalidPageID
	f.dirty.Store(false)
}

// swapLocked exchanges frames i and j and moves the table entries that
// pointed at them. An entry is moved only if it pointed at the frame: a
// doomed loading frame keeps its id, but its page's entry is gone or
// belongs to another frame. Caller holds the exclusive latch.
func (sh *shard) swapLocked(i, j int) {
	if i == j {
		return
	}
	a, b := sh.frames[i], sh.frames[j]
	ai, aOK := sh.lookup(a.id)
	bj, bOK := sh.lookup(b.id)
	sh.frames[i], sh.frames[j] = b, a
	if aOK && ai == i {
		sh.publish(a.id, j)
	}
	if bOK && bj == j {
		sh.publish(b.id, i)
	}
}

// parkLocked moves ring frame fi past the live boundary. The ring's
// last frame takes its index, so the hand, left where it is, examines
// that frame next. Caller holds the exclusive latch.
func (sh *shard) parkLocked(fi int) {
	sh.live--
	sh.swapLocked(fi, sh.live)
}

// unparkLocked returns frame fi to the ring if it is parked, and
// reports its index afterwards. Caller holds the exclusive latch.
func (sh *shard) unparkLocked(fi int) int {
	if fi < sh.live {
		return fi
	}
	sh.swapLocked(fi, sh.live)
	sh.live++
	return sh.live - 1
}

// sweepLocked runs the clock hand over the ring to the next eviction
// candidate: unpinned, not loading, not mid-writeback, and out of
// second chances. It reports the frame index and whether the candidate
// is dirty; a free frame is returned immediately. Under noSteal a dirty
// frame is parked instead (see shard), so it costs one visit per
// checkpoint rather than one per sweep. Caller holds the exclusive
// latch. Two revolutions of the ring as it stood at the start suffice:
// the first clears reference bits, the second must find a candidate if
// one exists; parking only shrinks the ring.
func (sh *shard) sweepLocked(noSteal bool) (fi int, dirty, found bool) {
	limit := 2 * sh.live
	for scanned := 0; scanned < limit && sh.live > 0; {
		if sh.hand >= sh.live {
			sh.hand = 0
		}
		i := sh.hand
		f := sh.frames[i]
		if f.pins.Load() == 0 && f.loading == nil && !f.flushing {
			if f.id == storage.InvalidPageID {
				sh.hand++
				return i, false, true
			}
			d := f.dirty.Load()
			if d && noSteal {
				sh.parkLocked(i)
				continue
			}
			if !f.ref.Load() {
				sh.hand++
				return i, d, true
			}
			f.ref.Store(false) // second chance consumed
		}
		sh.hand++
		scanned++
	}
	return 0, false, false
}

// evictLocked recycles frame fi, unpublishing its page. Caller holds
// the exclusive latch and has verified the frame is unpinned, loaded
// and clean.
func (sh *shard) evictLocked(fi int) {
	f := sh.frames[fi]
	if f.id != storage.InvalidPageID {
		sh.unpublish(f.id)
		f.id = storage.InvalidPageID
		sh.stats.evictions.Add(1)
	}
	f.dirty.Store(false)
	f.ref.Store(false)
}

// frameForNewPage returns a free frame index, evicting a victim when
// necessary. A dirty victim is written back with the latch released —
// batched with the shard's other dirty unpinned frames behind one
// flush-gate call — so the WAL fsync and the device write never block
// concurrent hits on this shard. Caller holds the exclusive latch; it
// is held again on return, but may have been released in between, so
// callers must revalidate any table lookups. The pages written back are
// counted into acct: the request that needed the frame pays for them.
func (sh *shard) frameForNewPage(acct *metrics.Account) (int, error) {
	for {
		noSteal := sh.pool.noSteal.Load()
		fi, dirty, found := sh.sweepLocked(noSteal)
		if !found {
			if noSteal {
				// The ring holds nothing evictable: every unpinned
				// frame is dirty and parked. Grow an overflow frame at
				// the end of the ring; the next FlushAll (checkpoint)
				// shrinks the pool back to capacity.
				sh.frames = append(sh.frames, &frame{id: storage.InvalidPageID})
				return sh.unparkLocked(len(sh.frames) - 1), nil
			}
			return -1, ErrAllPinned
		}
		if !dirty {
			sh.evictLocked(fi)
			return fi, nil
		}
		f := sh.frames[fi]
		batch := sh.collectWritebackLocked(fi)
		sh.mu.Unlock()
		cut, err := sh.pool.writeRuns(batch)
		sh.mu.Lock()
		acct.Wrote(sh.finishWritebackLocked(batch, cut))
		if err != nil {
			return -1, err
		}
		// Indices may have moved while the latch was released; the
		// frame pointer did not, so re-resolve the victim through the
		// table.
		if fi, ok := sh.lookup(f.id); ok && sh.frames[fi] == f && fi < sh.live &&
			f.pins.Load() == 0 && f.loading == nil && !f.dirty.Load() {
			sh.evictLocked(fi)
			return fi, nil
		}
		// The victim was re-pinned (or re-dirtied, or discarded) while
		// we wrote it back; sweep again.
	}
}

// wbEntry is one page of an out-of-latch writeback batch: the frame and
// a latch-held snapshot of its image, so the write proceeds latch-free
// even if a concurrent fetch pins and mutates the frame meanwhile (the
// frame is then dirty again and simply flushed later).
type wbEntry struct {
	f   *frame
	id  storage.PageID
	img []byte
}

// collectWritebackLocked snapshots frame first plus up to
// writebackBatch-1 more dirty, unpinned, settled frames of the shard
// for an out-of-latch writeback. Each collected frame has its dirty bit
// cleared and its flushing flag set, so the sweep skips it and a
// re-dirty during the write is preserved. The batch counts as in
// flight until finishWritebackLocked. Caller holds the exclusive latch.
func (sh *shard) collectWritebackLocked(first int) []wbEntry {
	sh.writebacks++
	batch := make([]wbEntry, 0, writebackBatch)
	add := func(f *frame) {
		img := make([]byte, len(f.data))
		copy(img, f.data)
		f.dirty.Store(false)
		f.flushing = true
		batch = append(batch, wbEntry{f: f, id: f.id, img: img})
	}
	add(sh.frames[first])
	for _, f := range sh.frames {
		if len(batch) >= writebackBatch {
			break
		}
		if f == sh.frames[first] || f.id == storage.InvalidPageID {
			continue
		}
		if f.pins.Load() != 0 || f.loading != nil || f.flushing || !f.dirty.Load() {
			continue
		}
		add(f)
	}
	return batch
}

// maxRunBytes bounds one store write of a flush: contiguous pages go to
// the store together, up to this many bytes (at least one page).
const maxRunBytes = 256 << 10

// writeRuns sorts batch by page id and writes it behind one flush-gate
// call, without holding any latch: each run of contiguous ids, up to
// maxRunBytes, is one WritePages, its images gathered into one buffer
// (a one-page run goes out as its own image). It returns the id of the first page
// that did not reach the store — InvalidPageID when all did — with the
// first error; a failed run counts as unwritten, whatever prefix of it
// the store took.
func (p *Pool) writeRuns(batch []wbEntry) (cut storage.PageID, err error) {
	if len(batch) == 0 {
		return storage.InvalidPageID, nil
	}
	slices.SortFunc(batch, func(a, b wbEntry) int { return cmp.Compare(a.id, b.id) })
	if gate := p.flushGate(); gate != nil {
		// WAL-before-data: the log must be durable past these pages'
		// last mutations before their images may reach the store.
		if err := gate(); err != nil {
			return batch[0].id, fmt.Errorf("buffer: flush gate for page %d: %w", batch[0].id, err)
		}
	}
	maxRun := max(1, maxRunBytes/p.store.PageSize())
	var gather []byte
	for i := 0; i < len(batch); {
		j := i + 1
		for j < len(batch) && j-i < maxRun && batch[j].id == batch[j-1].id+1 {
			j++
		}
		run := batch[i].img
		if j-i > 1 {
			gather = gather[:0]
			for _, e := range batch[i:j] {
				gather = append(gather, e.img...)
			}
			run = gather
		}
		start := time.Now()
		err := p.store.WritePages(batch[i].id, run)
		p.writeNanos.ObserveSince(start)
		if err != nil {
			return batch[i].id, fmt.Errorf("buffer: flush pages %d..%d: %w", batch[i].id, batch[j-1].id, err)
		}
		i = j
	}
	return storage.InvalidPageID, nil
}

// finishWritebackLocked clears the flushing flags of a completed batch,
// restores the dirty bit on every page that did not reach the store —
// those at or above cut (see writeRuns) — and wakes the flushes waiting
// for the shard's write-backs. It counts and returns the pages written:
// a run the store failed counts as unwritten, whatever prefix of it
// reached the device. Caller holds the exclusive latch.
func (sh *shard) finishWritebackLocked(batch []wbEntry, cut storage.PageID) int {
	written := 0
	for _, e := range batch {
		e.f.flushing = false
		if e.id < cut {
			written++
		} else {
			e.f.dirty.Store(true)
		}
	}
	sh.stats.writes.Add(int64(written))
	if sh.writebacks--; sh.writebacks == 0 {
		sh.wbDone.Broadcast()
	}
	return written
}

// awaitWritebacksLocked returns once no eviction write-back of the
// shard is in flight. Caller holds the exclusive latch; it is released
// while waiting, so callers must revalidate any table lookups.
func (sh *shard) awaitWritebacksLocked() {
	for sh.writebacks > 0 {
		sh.wbDone.Wait()
	}
}

// flushFrameLocked writes frame fi back if live and dirty, as a
// one-page run of writeRuns. Caller holds the exclusive latch; the
// write happens under it (used by Flush, which runs from exclusive
// contexts — eviction and FlushAll write with the latch released).
func (sh *shard) flushFrameLocked(fi int) error {
	f := sh.frames[fi]
	if f.id == storage.InvalidPageID || !f.dirty.Load() {
		return nil
	}
	if _, err := sh.pool.writeRuns([]wbEntry{{f: f, id: f.id, img: f.data}}); err != nil {
		return err
	}
	f.dirty.Store(false)
	sh.stats.writes.Add(1)
	return nil
}

// flushShardLocked writes every dirty frame of the shard (pinned ones
// too) in page order, behind a single flush-gate call, and returns
// every parked frame to the ring — a frame still dirty after a failed
// write is simply parked again by the next sweep. It first waits for
// the shard's eviction write-backs in flight, so that on return every
// image dirtied before the call has reached the store, oldest first.
// Caller holds the exclusive latch.
func (sh *shard) flushShardLocked() error {
	batch := sh.collectDirtyLocked(nil)
	cut, err := sh.pool.writeRuns(batch)
	for _, e := range batch {
		if e.id < cut {
			e.f.dirty.Store(false)
			sh.stats.writes.Add(1)
		}
	}
	return err
}

// collectDirtyLocked waits for the shard's eviction write-backs in
// flight, returns every parked frame to the ring and appends an entry
// for each dirty frame to batch. The entries alias the frames' images.
// Caller holds the exclusive latch.
func (sh *shard) collectDirtyLocked(batch []wbEntry) []wbEntry {
	sh.awaitWritebacksLocked()
	sh.live = len(sh.frames)
	for _, f := range sh.frames {
		if f.id != storage.InvalidPageID && f.dirty.Load() {
			batch = append(batch, wbEntry{f: f, id: f.id, img: f.data})
		}
	}
	return batch
}

// shrinkLocked drops overflow frames grown under no-steal, from the
// tail, as long as they are clean, unpinned and settled. Dropping a
// frame that still holds a page unpublishes it, which counts as an
// eviction — the page must be re-read on its next fetch. Caller holds
// the exclusive latch.
func (sh *shard) shrinkLocked() {
	for len(sh.frames) > sh.capacity {
		f := sh.frames[len(sh.frames)-1]
		if f.pins.Load() != 0 || f.loading != nil || f.flushing || f.dirty.Load() {
			break
		}
		if f.id != storage.InvalidPageID {
			sh.unpublish(f.id)
			sh.stats.evictions.Add(1)
		}
		sh.frames = sh.frames[:len(sh.frames)-1]
	}
	sh.live = min(sh.live, len(sh.frames))
	if sh.hand >= sh.live {
		sh.hand = 0
	}
}
