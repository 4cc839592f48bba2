package netfile

import (
	"sync/atomic"

	"ccam/internal/buffer"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// This file is the node index and the netfile half of snapshot reads.
// The buffer pool keeps LSN-tagged version chains of page bytes
// (buffer/version.go); what the pool cannot know is *which page a node
// lives on* at a given LSN — placements move under inserts, deletes and
// reorganization. The overlay below is the file's one node→page index,
// versioned: an immutable base plus one delta per mutation batch, each
// stamped with its commit LSN. A snapshot reader resolves a node
// through the overlay at its pinned LSN, then reads the page image at
// that LSN through the pool — never touching the live frame latches of
// in-progress writes or any file-wide lock. The serialized writer, and
// every direct use of File, resolves at the live end (buffer.LiveLSN),
// where the open batch's pending delta counts too. The index has no
// bytes on disk: build and open fill its base from the data pages
// (File.install).
//
// Writer protocol (serialized by the owner, e.g. the facade's write
// lock): BeginVersionBatch opens a pool version batch and installs a
// pending overlay delta; every placement mutation records itself into
// the delta (the PAG summary reads it when the mutation settles,
// pag.go); PublishVersionBatch stamps the delta and the page versions
// with the commit LSN — readers pinned below it keep their view, readers
// arriving after it see the new one, atomically.

// pendingOverlayLSN tags a delta whose batch has not committed yet; it
// compares above every real LSN, so readers skip it.
const pendingOverlayLSN = ^uint64(0)

// overlayDelta is one batch's placement changes. lsn is the commit LSN
// (pendingOverlayLSN until the batch publishes — the atomic store of
// the real LSN is also the release barrier that makes the maps safe to
// read). removed keeps the spatial entries the batch deleted, so range
// queries at an older LSN can still surface those nodes; it is guarded
// by the file's spatMu while pending.
type overlayDelta struct {
	lsn     atomic.Uint64
	entries map[graph.NodeID]storage.PageID // InvalidPageID = deleted
	removed []spatialEntry
}

// overlayState is an immutable snapshot of the versioned placement
// map: deltas newest-first over a base that folds every older batch.
// Readers load it atomically and never see it change.
type overlayState struct {
	base   map[graph.NodeID]storage.PageID
	deltas []*overlayDelta
}

// lookup resolves node id at snapshot lsn: the newest delta at or
// below lsn that mentions the node wins, else the base.
func (st *overlayState) lookup(id graph.NodeID, lsn uint64) (storage.PageID, bool) {
	for _, d := range st.deltas {
		if d.lsn.Load() > lsn {
			continue
		}
		if pid, ok := d.entries[id]; ok {
			if pid == storage.InvalidPageID {
				return storage.InvalidPageID, false
			}
			return pid, true
		}
	}
	pid, ok := st.base[id]
	return pid, ok
}

// placements materializes the full node→page map as of lsn (snapshot
// scans list their pages from it).
func (st *overlayState) placements(lsn uint64) map[graph.NodeID]storage.PageID {
	out := make(map[graph.NodeID]storage.PageID, len(st.base))
	for id, pid := range st.base {
		out[id] = pid
	}
	for i := len(st.deltas) - 1; i >= 0; i-- { // oldest first
		d := st.deltas[i]
		if d.lsn.Load() > lsn {
			continue
		}
		for id, pid := range d.entries {
			if pid == storage.InvalidPageID {
				delete(out, id)
			} else {
				out[id] = pid
			}
		}
	}
	return out
}

// notePlacement is the one writer of the node index: node id now lives
// on pid (InvalidPageID = it was deleted). Inside a version batch the
// overlay takes it in the pending delta; outside one (direct File use,
// serialized by the owner, with no pinned reader to keep a view for) the
// base is updated in place, after folding in whatever deltas earlier
// batches left above it. The PAG summary reads the new page when the
// mutation settles (pag.go).
func (f *File) notePlacement(id graph.NodeID, pid storage.PageID) {
	if f.verActive {
		f.batchDelta().entries[id] = pid
		return
	}
	st := f.overlay.Load()
	if len(st.deltas) > 0 {
		st = &overlayState{base: st.placements(buffer.LiveLSN)}
		f.overlay.Store(st)
	}
	if pid == storage.InvalidPageID {
		delete(st.base, id)
	} else {
		st.base[id] = pid
	}
}

// batchDelta returns the open batch's pending overlay delta, creating
// and installing it on first use. The lazy install keeps batches that
// never move a placement (edge-cost updates, most edge inserts) off
// the overlay entirely — no allocation, no delta-list growth, and
// nothing for readers to skip — which keeps the facade's latched
// commit section short.
func (f *File) batchDelta() *overlayDelta {
	if f.curDelta != nil {
		return f.curDelta
	}
	d := &overlayDelta{entries: make(map[graph.NodeID]storage.PageID)}
	d.lsn.Store(pendingOverlayLSN)
	old := f.overlay.Load()
	deltas := make([]*overlayDelta, 0, len(old.deltas)+1)
	deltas = append(deltas, d)
	deltas = append(deltas, old.deltas...)
	f.overlay.Store(&overlayState{base: old.base, deltas: deltas})
	f.curDelta = d
	return d
}

// BeginVersionBatch opens a mutation batch for snapshot isolation: the
// pool starts capturing pre-images of mutated pages and a pending
// overlay delta collects placement changes (installed lazily by the
// first placement change). Callers must serialize batches (the facade
// holds its writer mutex across one).
func (f *File) BeginVersionBatch() {
	f.pool.BeginVersionBatch()
	f.curDelta = nil
	f.verActive = true
}

// PublishVersionBatch commits the open batch at commitLSN (0 auto-
// assigns the next LSN for stores without a WAL): the overlay delta is
// stamped first, then the pool publishes the page versions and
// advances the committed LSN — so a reader pinning the new LSN finds
// both the new placements and the new page images, and a reader pinned
// below it finds neither. Returns the LSN used.
func (f *File) PublishVersionBatch(commitLSN uint64) uint64 {
	if commitLSN == 0 {
		commitLSN = f.pool.CommittedLSN() + 1
	}
	if f.curDelta != nil {
		f.curDelta.lsn.Store(commitLSN)
		f.curDelta = nil
	}
	f.verActive = false
	f.pool.PublishVersions(commitLSN)
	f.compactOverlay()
	return commitLSN
}

// AbortVersionBatch closes the open batch without committing. The
// pending delta stays in the overlay, permanently tagged pending, so
// readers keep skipping it — mirroring the pool, which keeps the
// aborted batch's pre-images pending so readers keep resolving the
// half-mutated pages to their committed bytes. The owner poisons the
// store after an abort; everything is reclaimed on reopen.
func (f *File) AbortVersionBatch() {
	f.pool.AbortVersionBatch()
	f.curDelta = nil
	f.verActive = false
}

// ResetVersions discards all version state and installs base as the
// overlay's new foundation (build and open call it once the on-disk
// placement is rebuilt). Callers must have drained every snapshot.
func (f *File) ResetVersions(base map[graph.NodeID]storage.PageID) {
	f.pool.DropVersions()
	if base == nil {
		base = make(map[graph.NodeID]storage.PageID)
	}
	f.overlay.Store(&overlayState{base: base})
	f.curDelta = nil
	f.verActive = false
}

// overlayCompactThreshold bounds the delta list a lookup must walk —
// a reader's and the writer's alike; past it, publish folds every delta
// below the version floor into a fresh base. BenchmarkLiveLookup prices
// a lookup at depths up to it.
const overlayCompactThreshold = 64

func (f *File) compactOverlay() {
	st := f.overlay.Load()
	if len(st.deltas) < overlayCompactThreshold {
		return
	}
	floor := f.pool.VersionFloor()
	// deltas are newest-first; the foldable ones form a suffix. A
	// permanently pending delta (aborted batch) blocks folding past it,
	// which is fine: the store is poisoned after an abort.
	idx := len(st.deltas)
	for idx > 0 {
		l := st.deltas[idx-1].lsn.Load()
		if l == pendingOverlayLSN || l > floor {
			break
		}
		idx--
	}
	if idx == len(st.deltas) {
		return
	}
	base := make(map[graph.NodeID]storage.PageID, len(st.base))
	for id, pid := range st.base {
		base[id] = pid
	}
	for i := len(st.deltas) - 1; i >= idx; i-- { // oldest first
		for id, pid := range st.deltas[i].entries {
			if pid == storage.InvalidPageID {
				delete(base, id)
			} else {
				base[id] = pid
			}
		}
	}
	f.overlay.Store(&overlayState{base: base, deltas: append([]*overlayDelta(nil), st.deltas[:idx]...)})
}

// OverlayDepth reports the overlay's delta count: how many maps a
// lookup may walk before the base (gauge ccam_overlay_depth).
func (f *File) OverlayDepth() int { return len(f.overlay.Load().deltas) }

// View is an LSN-consistent read-only view of the file, held by
// value: every read resolves placements through the overlay and page
// bytes through the pool's version chains as of the pinned LSN,
// without taking any file-wide lock — concurrent mutation batches,
// checkpoints and reorganization never block it and never leak into
// its view. A View is a borrow: the creator must pair PinView with
// exactly one Unpin, and the value form exists so a per-query
// pin/read/unpin cycle allocates nothing (the facade's read path).
// Long-lived, independently closeable views are Snapshot. The search
// operations are in cursor.go.
type View struct {
	f   *File
	lsn uint64
	// acct is charged with what the view's reads cost (nil: nobody is).
	acct *metrics.Account
}

// live is the view File's own search operations run on: placements
// from the overlay's live end, bytes from the live frames, no pin to
// release, the current write transaction's account. The owner
// serializes it against mutations, as File's contract demands.
func (f *File) live() View { return View{f: f, lsn: buffer.LiveLSN, acct: f.acct} }

// PinView pins the current committed LSN and returns a value view at
// it. The caller owns the pin and must call Unpin exactly once.
func (f *File) PinView() View {
	return View{f: f, lsn: f.pool.AcquireSnapshot()}
}

// Charging returns the view with its reads charged to a.
func (s View) Charging(a *metrics.Account) View {
	s.acct = a
	return s
}

// Account returns the account the view's reads are charged to (nil:
// nobody's).
func (s View) Account() *metrics.Account { return s.acct }

// Unpin releases the view's pin (not idempotent — the single owner
// releases it once).
func (s View) Unpin() { s.f.pool.ReleaseSnapshot(s.lsn) }

// LSN returns the pinned commit LSN.
func (s View) LSN() uint64 { return s.lsn }

// Snapshot is the long-lived form of View for callers outside the
// store's own query path: a heap handle whose Close is idempotent, so
// it can be handed to application code and defer-closed safely. All
// read operations come from the embedded View.
type Snapshot struct {
	View
	released atomic.Bool
}

// Snapshot pins the current committed LSN and returns a read view at
// it.
func (f *File) Snapshot() *Snapshot {
	return &Snapshot{View: f.PinView()}
}

// Close unpins the snapshot; idempotent.
func (s *Snapshot) Close() {
	if s.released.CompareAndSwap(false, true) {
		s.f.pool.ReleaseSnapshot(s.lsn)
	}
}

// Has reports whether node id exists as of the snapshot.
func (s View) Has(id graph.NodeID) bool {
	_, ok := s.f.overlay.Load().lookup(id, s.lsn)
	return ok
}

// SpatialIndexKind reports the file's spatial index structure.
func (s View) SpatialIndexKind() SpatialKind { return s.f.SpatialIndexKind() }

// SpatialCandidates probes the live spatial index for rect's candidate
// ids (planner page-set resolution; approximate against the pinned LSN
// exactly as the planner's statistics are).
func (s View) SpatialCandidates(rect geom.Rect, fn func(id graph.NodeID) bool) error {
	return s.f.SpatialCandidates(rect, fn)
}
