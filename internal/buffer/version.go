package buffer

import (
	"sync"

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

// pendingVersionLSN tags a chain entry whose superseding batch has not
// committed yet; it compares above every real LSN.
const pendingVersionLSN = ^uint64(0)

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
	p.verBatch = true
	p.verMu.Unlock()
}

// VersionBatchActive reports whether a version batch is open.
func (p *Pool) VersionBatchActive() bool {
	p.verMu.RLock()
	defer p.verMu.RUnlock()
	return p.verBatch
}

// SaveVersion records the committed image of page id before the open
// batch mutates it. data must be the page's current (committed) bytes;
// callers invoke it between fetching a page and first writing to it.
// No-op outside a batch, and on pages the batch already saved.
func (p *Pool) SaveVersion(id storage.PageID, data []byte) {
	p.verMu.Lock()
	if !p.verBatch {
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
	p.verBatch = false
	p.verMu.Unlock()

	p.snapMu.Lock()
	p.committed.Store(commitLSN)
	floor := p.floorLocked()
	p.snapMu.Unlock()
	p.gcVersions(floor)
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
	p.verBatch = false
	p.verMu.Unlock()
}

// AcquireSnapshot pins the current committed LSN and returns it. The
// read of the committed LSN and the refcount increment are atomic with
// respect to PublishVersions' floor computation, so the pinned LSN can
// never be garbage-collected out from under the caller. Every
// AcquireSnapshot must be paired with one ReleaseSnapshot.
func (p *Pool) AcquireSnapshot() uint64 {
	p.snapMu.Lock()
	lsn := p.committed.Load()
	p.snapRefs[lsn]++
	p.snapMu.Unlock()
	return lsn
}

// ReleaseSnapshot unpins a snapshot LSN, collecting versions that fell
// below the floor if the floor advanced.
func (p *Pool) ReleaseSnapshot(lsn uint64) {
	p.snapMu.Lock()
	switch n := p.snapRefs[lsn]; {
	case n <= 1:
		delete(p.snapRefs, lsn)
	default:
		p.snapRefs[lsn] = n - 1
	}
	floor := p.floorLocked()
	p.snapMu.Unlock()
	p.gcVersions(floor)
}

// CommittedLSN returns the LSN of the newest published batch.
func (p *Pool) CommittedLSN() uint64 { return p.committed.Load() }

// VersionFloor returns the oldest LSN any pinned snapshot may read
// (the committed LSN when nothing is pinned).
func (p *Pool) VersionFloor() uint64 {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	return p.floorLocked()
}

// ActiveSnapshots returns the number of pinned snapshots.
func (p *Pool) ActiveSnapshots() int {
	p.snapMu.Lock()
	defer p.snapMu.Unlock()
	n := 0
	for _, c := range p.snapRefs {
		n += c
	}
	return n
}

// VersionStats reports the size of the version store: retained chain
// entries and their page bytes.
func (p *Pool) VersionStats() (entries int64, bytes int64) {
	return p.verEntries.Load(), p.verBytes.Load()
}

// floorLocked computes the version floor under snapMu.
func (p *Pool) floorLocked() uint64 {
	floor := p.committed.Load()
	for l := range p.snapRefs {
		if l < floor {
			floor = l
		}
	}
	return floor
}

// gcVersions drops every chain entry whose supersededAt is at or below
// floor. The floor moves only when a batch publishes or the oldest
// snapshot goes, so the common release — a query unpinning the LSN it
// pinned microseconds ago — learns that from the atomic and leaves the
// write lock, and every reader borrowing a frame, alone.
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
	p.verBatch = false
	p.verEntries.Store(0)
	p.verBytes.Store(0)
	p.gcFloor.Store(0)
	p.verMu.Unlock()
	p.snapMu.Lock()
	p.committed.Store(0)
	p.snapMu.Unlock()
}

// LiveLSN, passed to ReadAt, selects the live frame bytes whatever the
// version chain holds. It is the lsn of callers the owner serializes
// against mutations (or the mutator itself, which must see its own
// uncommitted bytes); they take no version lock.
const LiveLSN = ^uint64(0)

// PageRef is a borrowed page image: Data is valid, and must not be
// written, until Release. A ref to a version-chain entry borrows
// immutable bytes and holds nothing. A ref to a live frame holds the
// frame's pin and — for a snapshot lsn — the version read-lock, which
// keeps SaveVersion, and with it every mutation of the frame, out
// while the bytes are read in place. Go's RWMutex prefers writers, so
// a borrower must Release before it calls ReadAt again (a second
// read-lock behind a waiting SaveVersion would deadlock), and must
// not keep a ref across storage I/O or hand it to its own caller.
type PageRef struct {
	Data  []byte
	f     *frame        // pinned; nil for a version-chain entry
	latch *sync.RWMutex // the pool's verMu, read-locked; nil when not held
}

// Release ends the borrow. The pin goes first: until the read-lock is
// dropped no writer can reach the Discard that unpublishes the frame.
func (r *PageRef) Release() {
	if r.f != nil {
		r.f.pins.Add(-1)
		if r.latch != nil {
			r.latch.RUnlock()
		}
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
//  1. A chain entry covering lsn wins — no frame pin, no I/O; the
//     bytes are an immutable committed image. This is also what makes
//     reading freed-and-recycled pages safe: the free saved the last
//     committed image, so old snapshots never touch the store. The
//     account counts it as a hit: the pool answered and nothing was
//     read, so a reader's count does not depend on whether a writer
//     got to the page first.
//  2. Otherwise the live frame holds the right image: a writer must
//     insert a pending chain entry — under the write lock — before its
//     first mutation of a page, so "no chain entry" means "no
//     in-progress mutation of these bytes". A resident, loaded frame is
//     pinned under its shard latch while the chain read-lock taken for
//     step 1 is still held, and the borrow keeps that lock: a snapshot
//     hit takes the version lock once.
//  3. A miss, or a frame whose read is still in flight, drops the lock
//     and fetches through the normal pin path (I/O and waits happen
//     without any version lock held), then re-checks the chain under
//     the lock the borrow keeps.
func (p *Pool) ReadAt(id storage.PageID, lsn uint64, acct *metrics.Account) (PageRef, error) {
	if lsn == LiveLSN {
		f, err := p.fetchFrame(id, acct)
		if err != nil {
			return PageRef{}, err
		}
		return PageRef{Data: f.data, f: f}, nil
	}
	p.verMu.RLock()
	if v := findVersion(p.versions[id], lsn); v != nil {
		p.verMu.RUnlock()
		acct.Hit()
		return PageRef{Data: v.data}, nil
	}
	if f := p.pinHit(id, acct); f != nil {
		return PageRef{Data: f.data, f: f, latch: &p.verMu}, nil
	}
	p.verMu.RUnlock()

	f, err := p.fetchFrame(id, acct)
	// Re-check: the page may have gained a pending entry while the
	// fetch did I/O, in which case the frame may already hold
	// uncommitted bytes — or the page was freed under the fetch, which
	// then failed, and the entry is the image to read.
	p.verMu.RLock()
	if v := findVersion(p.versions[id], lsn); v != nil {
		p.verMu.RUnlock()
		if err == nil {
			f.pins.Add(-1)
		}
		return PageRef{Data: v.data}, nil
	}
	if err != nil {
		p.verMu.RUnlock()
		return PageRef{}, err
	}
	return PageRef{Data: f.data, f: f, latch: &p.verMu}, nil
}
