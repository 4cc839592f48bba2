package buffer

import (
	"runtime"
	"sync/atomic"

	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// This file is the pool's MVCC page-version layer. A writer brackets a
// mutation batch with BeginVersionBatch/PublishVersions: the first time
// the batch touches a page, SaveVersion copies the page's committed
// bytes into a version chain entry tagged "pending"; PublishVersions
// stamps every pending entry with the batch's commit LSN and advances
// the pool's committed LSN. A reader pins the committed LSN with
// AcquireSnapshot and resolves every page through ReadAt, which walks
// the chain for the entry that was live at that LSN — so readers never
// observe a writer's in-progress bytes and never block on writer I/O.
// What ReadAt hands out is a borrow (PageRef), not a copy: the reader
// decodes in place and releases.
//
// Chain semantics: an entry's supersededAt is the commit LSN of the
// batch that OVERWROTE its bytes (pendingVersionLSN while that batch is
// still uncommitted). The entry's bytes are therefore valid for every
// snapshot LSN in [previous supersededAt, supersededAt); the live frame
// bytes are valid for every LSN at or past the newest entry's
// supersededAt. GC drops entries whose supersededAt is at or below the
// version floor — the oldest pinned snapshot LSN — because no pinned
// reader can need them.
//
// Pins. A pin lives in one of snapshotSlots cache-line-padded reader
// slots, each 0 (free) or a pinned LSN plus one. AcquireSnapshot reads
// the committed LSN P, claims a free slot with P by CAS, and re-reads
// the committed LSN: if it is still P the pin stands, otherwise the
// reader clears its own claim and retries. The floor is the minimum of
// the committed LSN, read first, and every claimed slot, read after it.
// A standing pin that a floor scan misses was claimed after the scan
// read the committed LSN C, so its re-read saw at least C: P ≥ C ≥ the
// floor. A claim still being retried can only lower a floor, never
// raise it. The handle (SnapshotPin) names the slot, so a release
// clears exactly the slot its own pin claimed. Pins that find every
// slot taken go to a list under snapMu (counted in overflow, which is
// raised before the committed LSN is read, so a scan that sees no
// overflow pin misses only pins at or above its committed LSN).

// pendingVersionLSN tags a chain entry whose superseding batch has not
// committed yet; it compares above every real LSN.
const pendingVersionLSN = ^uint64(0)

// snapshotSlots is the number of reader slots: pins held at once beyond
// it take the locked overflow list.
const snapshotSlots = 64

// overflowPin is the slot of a pin held in the overflow list.
const overflowPin = -1

// readerSlot is one pin: 0, or the pinned LSN plus one. The padding
// keeps two slots' words off one cache line, so concurrent readers pin
// and unpin without sharing a line.
type readerSlot struct {
	lsn atomic.Uint64
	_   [56]byte
}

// SnapshotPin is a pinned snapshot, as AcquireSnapshot returns it: the
// LSN its reads resolve at, and the reader slot that holds the pin. It
// is released with ReleaseSnapshot exactly once.
type SnapshotPin struct {
	LSN  uint64
	slot int32
}

// pageVersion is one entry of a page's version chain, newest first.
type pageVersion struct {
	supersededAt uint64 // commit LSN of the batch that replaced these bytes
	data         []byte // immutable committed page image
	older        *pageVersion
}

// findVersion returns the chain entry live at snapshot lsn: the entry
// with the smallest supersededAt still above lsn. Nil means the live
// frame bytes are the right image.
func findVersion(head *pageVersion, lsn uint64) *pageVersion {
	var best *pageVersion
	for v := head; v != nil && v.supersededAt > lsn; v = v.older {
		best = v
	}
	return best
}

// BeginVersionBatch opens a version batch: until PublishVersions (or
// AbortVersionBatch), SaveVersion captures the pre-batch image of every
// page the batch touches. Batches are single-writer — the caller
// serializes them (the facade holds its write lock across a batch).
func (p *Pool) BeginVersionBatch() {
	p.verMu.Lock()
	p.verBatch.Store(true)
	p.verMu.Unlock()
}

// VersionBatchActive reports whether a version batch is open.
func (p *Pool) VersionBatchActive() bool { return p.verBatch.Load() }

// SaveVersion records the committed image of page id before the open
// batch mutates it. data must be the page's current (committed) bytes;
// callers invoke it between fetching a page and first writing to it.
// No-op outside a batch, and on pages the batch already saved.
//
// It installs the pending entry under verMu, releases verMu, and then
// waits — holding neither verMu nor a shard latch — until no snapshot
// reader borrows the page's frame. A reader raises the frame's borrow
// count before it looks for a chain entry (ReadAt), so every reader
// either is waited for here or finds the pending entry and never reads
// the frame: once SaveVersion returns, the caller may write the frame.
// Readers of other pages are never waited for.
func (p *Pool) SaveVersion(id storage.PageID, data []byte) {
	p.verMu.Lock()
	if !p.verBatch.Load() {
		p.verMu.Unlock()
		return
	}
	head := p.versions[id]
	if head != nil && head.supersededAt == pendingVersionLSN {
		p.verMu.Unlock()
		return
	}
	cp := make([]byte, len(data))
	copy(cp, data)
	p.versions[id] = &pageVersion{supersededAt: pendingVersionLSN, data: cp, older: head}
	p.pendingVers = append(p.pendingVers, id)
	p.verEntries.Add(1)
	p.verBytes.Add(int64(len(cp)))
	p.verMu.Unlock()
	p.awaitBorrows(id)
}

// awaitBorrows returns once no snapshot reader borrows page id's frame.
// The writer hangs its wake-up channel on the frame before it reads the
// count, and the release that drops the count to zero looks for the
// channel after, so either the writer sees the count at zero or that
// release wakes it. A wake-up left over from an earlier wait only costs
// a re-check.
func (p *Pool) awaitBorrows(id storage.PageID) {
	sh := p.shardOf(id)
	sh.mu.RLock()
	var f *frame
	if fi, ok := sh.lookup(id); ok {
		f = sh.frames[fi]
	}
	sh.mu.RUnlock()
	if f == nil || f.borrows.Load() == 0 {
		return
	}
	f.drainer.Store(&p.drained)
	for f.borrows.Load() != 0 {
		<-p.drained
	}
	f.drainer.Store(nil)
}

// PublishVersions commits the open batch: pending entries are stamped
// with commitLSN, then the pool's committed LSN advances, then versions
// below the new floor are collected. Pass 0 to auto-assign the next LSN
// (stores without a WAL). Returns the LSN used. The stamp happens
// before the committed LSN moves, so a reader that pins the old LSN
// always finds the chain entry covering it.
func (p *Pool) PublishVersions(commitLSN uint64) uint64 {
	if commitLSN == 0 {
		commitLSN = p.committed.Load() + 1
	}
	p.verMu.Lock()
	for _, id := range p.pendingVers {
		if v := p.versions[id]; v != nil && v.supersededAt == pendingVersionLSN {
			v.supersededAt = commitLSN
		}
	}
	p.pendingVers = p.pendingVers[:0]
	p.verBatch.Store(false)
	p.verMu.Unlock()

	p.committed.Store(commitLSN)
	p.gcVersions(p.floor())
	return commitLSN
}

// AbortVersionBatch closes the open batch without committing. The
// pending entries stay in place, permanently tagged pending: in-flight
// snapshot readers keep resolving the pages the aborted batch half-
// mutated to their committed images. The store above poisons itself
// after an abort, so the entries are reclaimed when it reopens.
func (p *Pool) AbortVersionBatch() {
	p.verMu.Lock()
	p.pendingVers = p.pendingVers[:0]
	p.verBatch.Store(false)
	p.verMu.Unlock()
}

// AcquireSnapshot pins the current committed LSN in a reader slot (see
// the top of this file) and returns the pin: the LSN can never be
// garbage-collected out from under the caller until ReleaseSnapshot.
// Every AcquireSnapshot must be paired with one ReleaseSnapshot of the
// pin it returned.
func (p *Pool) AcquireSnapshot() SnapshotPin {
	for {
		lsn := p.committed.Load()
		i := p.claimSlot(lsn)
		if i < 0 {
			return p.pinOverflow()
		}
		if p.committed.Load() == lsn {
			return SnapshotPin{LSN: lsn, slot: int32(i)}
		}
		// A commit landed between the read and the claim: a floor scan
		// may have missed the claim, so clear it and pin the new LSN.
		p.readers[i].lsn.Store(0)
	}
}

// claimSlot claims the lowest free reader slot for lsn and returns its
// index, or -1 when every slot is taken. Low slots first keeps the
// floor scan short: it reads only up to the highest slot ever claimed.
func (p *Pool) claimSlot(lsn uint64) int {
	for i := range p.readers {
		s := &p.readers[i].lsn
		if s.Load() != 0 || !s.CompareAndSwap(0, lsn+1) {
			continue
		}
		for {
			n := p.slotsUsed.Load()
			if int32(i) < n || p.slotsUsed.CompareAndSwap(n, int32(i)+1) {
				return i
			}
		}
	}
	return -1
}

// pinOverflow pins the committed LSN in the locked overflow list.
func (p *Pool) pinOverflow() SnapshotPin {
	p.snapMu.Lock()
	p.overflow.Add(1)
	lsn := p.committed.Load()
	p.snapRefs[lsn]++
	p.snapMu.Unlock()
	return SnapshotPin{LSN: lsn, slot: overflowPin}
}

// ReleaseSnapshot unpins pin, collecting versions that fell below the
// floor if the floor advanced. With the version store empty, as it is
// whenever no pin holds a committed batch's pre-images back, it is one
// store to the pin's own slot. While a batch is open the release leaves
// collection to the batch's PublishVersions, whose floor scan comes
// after the slot was cleared: a reader taking verMu exclusively beside
// a busy writer would queue the writer's own brackets behind it.
func (p *Pool) ReleaseSnapshot(pin SnapshotPin) {
	if pin.slot != overflowPin {
		p.readers[pin.slot].lsn.Store(0)
	} else {
		p.snapMu.Lock()
		switch n := p.snapRefs[pin.LSN]; {
		case n <= 1:
			delete(p.snapRefs, pin.LSN)
		default:
			p.snapRefs[pin.LSN] = n - 1
		}
		p.overflow.Add(-1)
		p.snapMu.Unlock()
	}
	if p.verEntries.Load() > 0 && !p.verBatch.Load() {
		p.gcVersions(p.floor())
	}
}

// CommittedLSN returns the LSN of the newest published batch.
func (p *Pool) CommittedLSN() uint64 { return p.committed.Load() }

// VersionFloor returns the oldest LSN any pinned snapshot may read
// (the committed LSN when nothing is pinned).
func (p *Pool) VersionFloor() uint64 { return p.floor() }

// ActiveSnapshots returns the number of pinned snapshots (a pin being
// retried counts while it holds its claim).
func (p *Pool) ActiveSnapshots() int {
	n := int(p.overflow.Load())
	for i, used := 0, int(p.slotsUsed.Load()); i < used; i++ {
		if p.readers[i].lsn.Load() != 0 {
			n++
		}
	}
	return n
}

// VersionStats reports the size of the version store: retained chain
// entries and their page bytes.
func (p *Pool) VersionStats() (entries int64, bytes int64) {
	return p.verEntries.Load(), p.verBytes.Load()
}

// floor computes the version floor: the minimum of the committed LSN,
// read first, the claimed slots and the overflow pins.
func (p *Pool) floor() uint64 {
	floor := p.committed.Load()
	for i, used := 0, int(p.slotsUsed.Load()); i < used; i++ {
		if v := p.readers[i].lsn.Load(); v != 0 && v-1 < floor {
			floor = v - 1
		}
	}
	if p.overflow.Load() > 0 {
		p.snapMu.Lock()
		for l := range p.snapRefs {
			if l < floor {
				floor = l
			}
		}
		p.snapMu.Unlock()
	}
	return floor
}

// gcVersions drops every chain entry whose supersededAt is at or below
// floor. The floor moves only when a batch publishes or the oldest
// snapshot goes, so the common release — a query unpinning the LSN it
// pinned microseconds ago — learns that from the atomic and leaves the
// write lock, and every reader probing a chain, alone.
func (p *Pool) gcVersions(floor uint64) {
	if floor <= p.gcFloor.Load() {
		return
	}
	p.verMu.Lock()
	if floor <= p.gcFloor.Load() {
		p.verMu.Unlock()
		return
	}
	p.gcFloor.Store(floor)
	for id, head := range p.versions {
		// Entries are newest-first by supersededAt (pending on top): cut
		// the chain at the first entry no pinned reader can need.
		var prev *pageVersion
		v := head
		for v != nil && (v.supersededAt == pendingVersionLSN || v.supersededAt > floor) {
			prev, v = v, v.older
		}
		if v == nil {
			continue
		}
		for d := v; d != nil; d = d.older {
			p.verEntries.Add(-1)
			p.verBytes.Add(-int64(len(d.data)))
		}
		if prev == nil {
			delete(p.versions, id)
		} else {
			prev.older = nil
		}
	}
	p.verMu.Unlock()
}

// DropVersions clears the whole version store and resets the committed
// LSN. Callers must have drained every snapshot first (Build and
// recovery run under the facade's exclusive structural lock).
func (p *Pool) DropVersions() {
	p.verMu.Lock()
	p.versions = make(map[storage.PageID]*pageVersion)
	p.pendingVers = nil
	p.verBatch.Store(false)
	p.verEntries.Store(0)
	p.verBytes.Store(0)
	p.gcFloor.Store(0)
	p.verMu.Unlock()
	p.committed.Store(0)
}

// LiveLSN, passed to ReadAt, selects the live frame bytes whatever the
// version chain holds. It is the lsn of callers the owner serializes
// against mutations (or the mutator itself, which must see its own
// uncommitted bytes); they take no version lock.
const LiveLSN = ^uint64(0)

// PageRef is a borrowed page image: Data is valid, and must not be
// written, until Release. A ref to a version-chain entry borrows
// immutable bytes and holds nothing. A ref to a live frame holds the
// frame's pin, which keeps the sweep off it, and — for a snapshot lsn —
// one of the frame's snapshot borrows, which keeps a writer's first
// touch of the page (SaveVersion), and with it every mutation of the
// frame, waiting until the bytes are read. A borrow holds no lock: a
// reader may hold one across another ReadAt, and a writer waits only
// for the borrows of the page it is about to change. Still, a borrower
// must not keep a ref across storage I/O or hand it to its own caller,
// and must not hold one across its own SaveVersion, which would wait
// for it forever.
type PageRef struct {
	Data []byte
	f    *frame // pinned; nil for a version-chain entry
	snap bool   // f's snapshot borrow count is raised
}

// Release ends the borrow: the snapshot borrow goes first, then the
// pin, in the reverse of the order ReadAt took them.
func (r *PageRef) Release() {
	if r.f != nil {
		if r.snap {
			r.f.unborrow()
		}
		r.f.pins.Add(-1)
	}
	*r = PageRef{}
}

// Touch records one more reference to the borrowed page, exactly as a
// repeated Fetch hit would have: the clock sweep's second-chance bit
// is set, so replacement — and with it the physical read count — does
// not depend on whether a reader stayed on the page or came back.
func (r *PageRef) Touch() {
	if r.f != nil && !r.f.ref.Load() {
		r.f.ref.Store(true)
	}
}

// ReadAt borrows the image of page id as of snapshot lsn. Resolution
// order:
//
//  1. A resident, loaded frame is pinned under its shard latch (which
//     is then released) and counted as a hit. The reader raises the
//     frame's snapshot borrow count, and only then looks for a chain
//     entry covering lsn: not at all while the version store is empty,
//     otherwise under a verMu read bracket that it drops before it
//     reads. An entry found there wins — the borrow and the pin are
//     dropped and the entry's immutable bytes are the image, still one
//     hit. With no entry the frame holds the right image: a writer
//     installs a pending entry before it waits for the frame's borrows
//     and then mutates (SaveVersion), so a borrow raised before the
//     probe either finds that entry or is waited for.
//  2. Otherwise an entry covering lsn answers without I/O, counted as
//     a hit: the pool answered and nothing was read, so a reader's
//     count does not depend on whether a writer got to the page first.
//     This is also what makes reading freed-and-recycled pages safe:
//     the free saved the last committed image, so old snapshots never
//     touch the store.
//  3. Otherwise the page is fetched through the normal pin path (I/O
//     and waits happen with no lock held) and borrowed as in 1; a fetch
//     that failed because the page was freed under it finds the entry
//     the free saved.
//
// No path of the pool holds verMu and a shard latch at once.
func (p *Pool) ReadAt(id storage.PageID, lsn uint64, acct *metrics.Account) (PageRef, error) {
	if lsn == LiveLSN {
		f, err := p.fetchFrame(id, acct)
		if err != nil {
			return PageRef{}, err
		}
		return PageRef{Data: f.data, f: f}, nil
	}
	if f := p.pinHit(id, acct); f != nil {
		return p.borrow(f, id, lsn), nil
	}
	if v := p.versionAt(id, lsn); v != nil {
		acct.Hit()
		return PageRef{Data: v.data}, nil
	}
	f, err := p.fetchFrame(id, acct)
	if err != nil {
		if v := p.versionAt(id, lsn); v != nil {
			return PageRef{Data: v.data}, nil
		}
		return PageRef{}, err
	}
	return p.borrow(f, id, lsn), nil
}

// borrow turns the pin on page id's frame f into a snapshot borrow at
// lsn, or into the chain entry covering lsn if there is one.
func (p *Pool) borrow(f *frame, id storage.PageID, lsn uint64) PageRef {
	f.borrows.Add(1)
	if v := p.versionAt(id, lsn); v != nil {
		f.unborrow()
		f.pins.Add(-1)
		return PageRef{Data: v.data}
	}
	return PageRef{Data: f.data, f: f, snap: true}
}

// unborrow drops one snapshot borrow of f, waking the writer waiting in
// awaitBorrows if it was the last.
func (f *frame) unborrow() {
	if f.borrows.Add(-1) != 0 {
		return
	}
	if c := f.drainer.Load(); c != nil {
		select {
		case *c <- struct{}{}:
			// Hand the woken writer this CPU now: a reader goroutine runs
			// until it blocks or is preempted, and readers that never
			// wait would otherwise keep the writer queued for a whole
			// scheduler time slice.
			runtime.Gosched()
		default:
		}
	}
}

// versionAt returns page id's chain entry covering lsn, or nil. An
// empty version store answers from one atomic load.
func (p *Pool) versionAt(id storage.PageID, lsn uint64) *pageVersion {
	if p.verEntries.Load() == 0 {
		return nil
	}
	p.verMu.RLock()
	v := findVersion(p.versions[id], lsn)
	p.verMu.RUnlock()
	return v
}
