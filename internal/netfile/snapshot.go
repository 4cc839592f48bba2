package netfile

import (
	"fmt"
	"math/bits"
	"sync/atomic"

	"ccam/internal/buffer"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// This file is the node index and the netfile half of snapshot reads.
// The buffer pool keeps LSN-tagged version chains of page bytes
// (buffer/version.go); what the pool cannot know is *where a node's
// record lies* at a given LSN — placements move under inserts, deletes
// and reorganization. The overlay below is the file's one node index,
// versioned: an open-addressing table (nodeTable) holding every folded
// placement, plus one delta per mutation batch that a pinned reader may
// still need, each stamped with its commit LSN. A placement is a record
// id (rid): the data page and the slot on it, so a seek reads one slot
// instead of walking the page. A snapshot reader resolves a node
// through the overlay at its pinned LSN, then reads the page image at
// that LSN through the pool — never touching the live frame latches of
// in-progress writes or any file-wide lock. The serialized writer, and
// every direct use of File, resolves at the live end (buffer.LiveLSN),
// where the open batch's pending delta counts too. The index has no
// bytes on disk: build and open fill its table from the data pages
// (File.install).
//
// A record id is exact at every LSN because the same batch versions
// both halves of it: every slot assignment (install, a record stored by
// an insert or a move, a page rewritten by reorganization) notes the
// new rid in the batch's delta, and the batch's page writes save the
// page's committed image in the pool's version chain. A reader pinned
// below the batch gets the old rid and the old image, a reader at or
// above it the new rid and the new image. Updates and compaction keep
// slot numbers, so nothing else moves a record off its rid.
//
// Writer protocol (serialized by the owner, e.g. the facade's write
// lock): BeginVersionBatch opens a pool version batch and installs a
// pending overlay delta; every placement mutation records itself into
// the delta (the PAG summary reads it when the mutation settles,
// pag.go); PublishVersionBatch stamps the delta and the page versions
// with the commit LSN — readers pinned below it keep their view, readers
// arriving after it see the new one, atomically — and then folds every
// delta at or below the pool's version floor into the table, in place,
// and drops it from the list. Deltas stay listed only while a pinned
// view may need them.
//
// Why the in-place fold is safe. A reader pins its LSN P before it
// loads the overlay state, and a delta d with commit LSN L is folded
// only when L ≤ the version floor ≤ every pinned P. A pin is one of the
// pool's reader slots (buffer/version.go): the reader reads the
// committed LSN P, claims a free slot with P, and re-reads the
// committed LSN — the pin stands only if it is still P; otherwise the
// reader clears its own claim and retries. The floor scan reads the
// committed LSN C before the slots, so a standing pin it misses was
// claimed after that read and re-read at least C: P ≥ C ≥ floor. A
// claim being retried only lowers a floor, and a pin in the overflow
// list is counted before its LSN is read, to the same effect. Take a
// reader and a table word the fold of d rewrites:
//   - if the reader's state lists d, its lookup finds the entry in d
//     (L ≤ P) before it reads the table, so the rewrite is invisible;
//   - if the state does not list d, either d was installed after the
//     state was loaded — so it committed after the reader pinned,
//     L > P, and cannot fold while that pin is held — or an earlier
//     fold dropped d, and the state's atomic publication orders that
//     fold's stores before the reader's loads.
//
// So every folded word a reader can observe carries a placement its LSN
// is entitled to see. Growth never rewrites a table a reader may hold:
// it builds a larger one and installs it with a new state; readers of
// the old state keep the old table, frozen with every fold up to the
// growth, and the same argument covers the deltas their state lists.

// rid is a record id: the data page a node's record is on and its slot
// there, packed page<<slotBits | slot with the file's slotBits
// (File.rid). noRID, all ones, is no record: a deleted node.
type rid uint32

const noRID = rid(^uint32(0))

// slotBits returns how many low bits of a rid hold the slot on a
// pageSize-byte page: enough for every slot number of a page of node
// records (each at least a record header), 7 bits at 2 KiB and 12 at
// 64 KiB. The page id takes the rest.
func slotBits(pageSize int) uint {
	return uint(bits.Len(uint(storage.MaxSlots(pageSize, recordHeaderSize) - 1)))
}

// maxPageID is the largest page id a rid can name: the one above it
// would pack, with an all-ones slot, to noRID.
func (f *File) maxPageID() storage.PageID {
	return storage.PageID(1)<<(32-f.slotBits) - 2
}

// checkPageID refuses a page id past maxPageID, so the node index can
// name every record the file stores.
func (f *File) checkPageID(pid storage.PageID) error {
	if pid > f.maxPageID() {
		return fmt.Errorf("%w: page %d, limit %d at %d-byte pages", ErrPageLimit, pid, f.maxPageID(), f.pageSize)
	}
	return nil
}

// rid packs page pid and slot into a record id; ridPage and ridSlot
// unpack one.
func (f *File) rid(pid storage.PageID, slot int) rid {
	return rid(uint32(pid)<<f.slotBits | uint32(slot))
}

func (f *File) ridPage(r rid) storage.PageID { return storage.PageID(uint32(r) >> f.slotBits) }

func (f *File) ridSlot(r rid) int { return int(uint32(r) & (1<<f.slotBits - 1)) }

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
	entries map[graph.NodeID]rid // noRID = deleted
	removed []spatialEntry
}

// overlayState is an immutable snapshot of the versioned placement
// map: the deltas pinned views may still need, newest-first, over the
// table that holds every folded batch. Readers load it atomically; its
// fields never change, and the table's words change only as the fold
// argument above allows.
type overlayState struct {
	table  *nodeTable
	deltas []*overlayDelta
}

// lookup resolves node id at snapshot lsn: the newest delta at or
// below lsn that mentions the node wins, else the table.
func (st *overlayState) lookup(id graph.NodeID, lsn uint64) (rid, bool) {
	for _, d := range st.deltas {
		if d.lsn.Load() > lsn {
			continue
		}
		if r, ok := d.entries[id]; ok {
			return r, r != noRID
		}
	}
	return st.table.get(id)
}

// rids materializes the full node→rid map as of lsn.
func (st *overlayState) rids(lsn uint64) map[graph.NodeID]rid {
	out := make(map[graph.NodeID]rid)
	st.table.each(func(id graph.NodeID, r rid) { out[id] = r })
	for i := len(st.deltas) - 1; i >= 0; i-- { // oldest first
		d := st.deltas[i]
		if d.lsn.Load() > lsn {
			continue
		}
		for id, r := range d.entries {
			if r == noRID {
				delete(out, id)
			} else {
				out[id] = r
			}
		}
	}
	return out
}

// placements materializes the full node→page map as of lsn (snapshot
// scans list their pages from it).
func (f *File) placements(lsn uint64) graph.Placement {
	out := make(graph.Placement)
	for id, r := range f.overlay.Load().rids(lsn) {
		out[id] = f.ridPage(r)
	}
	return out
}

// nodeTable is the folded node index: a linear-probing table of packed
// id<<32 | rid words, written only by the serialized writer (atomic
// stores) and read by any number of readers (atomic loads). A word is
// emptySlot, a live placement, or a tombstone — the id with noRID —
// that a delete leaves. A claimed slot keeps its id for the table's
// life, so no probe chain breaks under a reader: a delete or a
// re-insert rewrites the id's own word. Before a new id would fill the
// table past half, tombstones counted, it grows into a new table.
//
// The home slot keeps each run of 16 consecutive ids in one block of 16
// slots — the block is a Fibonacci hash of id>>4, the offset id&15 — so
// the dense, locally clustered ids of a road network resolve a route's
// hops within a few cache lines, while sparse ids still spread over
// the blocks.
type nodeTable struct {
	slots []atomic.Uint64
	mask  uint64
	shift uint // 64 − log2(blocks)
	used  int  // claimed slots, tombstones included; the writer's alone
}

const (
	emptySlot     = ^uint64(0)
	runBits       = 4 // log2 of the ids that share a home block
	minTableSlots = 64
	fibonacci     = 0x9E3779B97F4A7C15 // 2^64 / φ
)

// newNodeTable returns an empty table that holds n ids at most half
// full: between 16 and 32 bytes an id once they are in (n ≥ 16).
func newNodeTable(n int) *nodeTable {
	size := minTableSlots
	for size < 2*n {
		size *= 2
	}
	t := &nodeTable{slots: make([]atomic.Uint64, size), mask: uint64(size - 1)}
	t.shift = 64 - uint(bits.TrailingZeros(uint(size>>runBits)))
	for i := range t.slots {
		t.slots[i].Store(emptySlot)
	}
	return t
}

func (t *nodeTable) home(id graph.NodeID) uint64 {
	return (uint64(id>>runBits)*fibonacci)>>t.shift<<runBits | uint64(id&(1<<runBits-1))
}

// get returns node id's record id, if the table holds it live.
func (t *nodeTable) get(id graph.NodeID) (rid, bool) {
	for i := t.home(id); ; i = (i + 1) & t.mask {
		w := t.slots[i].Load()
		if w == emptySlot {
			return noRID, false
		}
		if graph.NodeID(w>>32) == id {
			r := rid(w)
			return r, r != noRID
		}
	}
}

// put records that node id's record is at r (noRID: it was deleted)
// and returns the table to use from now on: t itself, or a larger copy
// when a new id would fill t past half. id must not be
// graph.InvalidNodeID, whose tombstone would read as an empty slot.
func (t *nodeTable) put(id graph.NodeID, r rid) *nodeTable {
	i := t.home(id)
	for ; ; i = (i + 1) & t.mask {
		w := t.slots[i].Load()
		if w == emptySlot {
			break
		}
		if graph.NodeID(w>>32) == id {
			t.slots[i].Store(uint64(id)<<32 | uint64(r))
			return t
		}
	}
	if r == noRID {
		return t // the table never held id
	}
	if 2*(t.used+1) > len(t.slots) {
		return t.grown().put(id, r)
	}
	t.slots[i].Store(uint64(id)<<32 | uint64(r))
	t.used++
	return t
}

// each calls fn for every live placement.
func (t *nodeTable) each(fn func(graph.NodeID, rid)) {
	for i := range t.slots {
		if w := t.slots[i].Load(); w != emptySlot && rid(w) != noRID {
			fn(graph.NodeID(w>>32), rid(w))
		}
	}
}

// grown copies t's live placements, not its tombstones, into a new
// table with room for half as many new ids again as it holds, so under
// any churn of deletes and new ids a rebuild costs O(1) per new id.
func (t *nodeTable) grown() *nodeTable {
	live := 0
	t.each(func(graph.NodeID, rid) { live++ })
	g := newNodeTable(live + live/2 + 1)
	t.each(func(id graph.NodeID, r rid) { g.put(id, r) })
	return g
}

// notePlacement is the one writer of the node index: node id's record
// now lies at r (noRID = it was deleted). Inside a version batch the
// overlay takes it in the pending delta; outside one (direct File use,
// serialized by the owner, with no pinned reader to keep a view for) the
// table is updated in place, after folding in whatever deltas earlier
// batches left above it. The PAG summary reads the new page when the
// mutation settles (pag.go).
func (f *File) notePlacement(id graph.NodeID, r rid) {
	if f.verActive {
		f.batchDelta().entries[id] = r
		return
	}
	st := f.overlay.Load()
	if len(st.deltas) > 0 {
		st = f.fold(st, 0)
	}
	if t := st.table.put(id, r); t != st.table {
		f.overlay.Store(&overlayState{table: t})
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
	d := &overlayDelta{entries: make(map[graph.NodeID]rid)}
	d.lsn.Store(pendingOverlayLSN)
	old := f.overlay.Load()
	deltas := make([]*overlayDelta, 0, len(old.deltas)+1)
	deltas = append(deltas, d)
	deltas = append(deltas, old.deltas...)
	f.overlay.Store(&overlayState{table: old.table, deltas: deltas})
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
// below it finds neither. Last, every delta at or below the version
// floor folds into the table. Returns the LSN used.
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
	f.foldCommitted()
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

// resetVersions discards all version state and installs t as the
// overlay's table (build and open call it once the on-disk placement
// is rebuilt). Callers must have drained every snapshot.
func (f *File) resetVersions(t *nodeTable) {
	f.pool.DropVersions()
	f.overlay.Store(&overlayState{table: t})
	f.curDelta = nil
	f.verActive = false
}

// foldCommitted folds the deltas at or below the version floor into the
// table, in place (see the argument at the top of this file), and drops
// them from the list.
func (f *File) foldCommitted() {
	st := f.overlay.Load()
	if len(st.deltas) == 0 {
		return
	}
	floor := f.pool.VersionFloor()
	// deltas are newest-first; the foldable ones form a suffix. A
	// permanently pending delta (aborted batch) blocks folding past it,
	// which is fine: the store is poisoned after an abort.
	keep := len(st.deltas)
	for keep > 0 {
		l := st.deltas[keep-1].lsn.Load()
		if l == pendingOverlayLSN || l > floor {
			break
		}
		keep--
	}
	if keep < len(st.deltas) {
		f.fold(st, keep)
	}
}

// fold writes st's deltas from index keep on into the table, oldest
// first, then installs and returns the state that lists only the first
// keep.
func (f *File) fold(st *overlayState, keep int) *overlayState {
	t := st.table
	for i := len(st.deltas) - 1; i >= keep; i-- {
		for id, r := range st.deltas[i].entries {
			t = t.put(id, r)
		}
	}
	st = &overlayState{table: t, deltas: st.deltas[:keep:keep]}
	f.overlay.Store(st)
	return st
}

// OverlayDepth reports the overlay's delta count: the committed
// batches that pinned snapshots still hold above the version floor
// (plus an open or aborted batch's pending delta), each a map a lookup
// may probe before the table (gauge ccam_overlay_depth). It is 0 after
// every commit made with nothing pinned.
func (f *File) OverlayDepth() int { return len(f.overlay.Load().deltas) }

// View is an LSN-consistent read-only view of the file, held by
// value: every read resolves placements through the overlay and page
// bytes through the pool's version chains as of the pinned LSN,
// without taking any file-wide lock — concurrent mutation batches,
// checkpoints and reorganization never block it and never leak into
// its view. A View is a borrow: the creator must pair PinView with
// exactly one File.Unpin, and the value form exists so a per-query
// pin/read/unpin cycle allocates nothing (the facade's read path).
// Long-lived, independently closeable views are Snapshot. The search
// operations are in cursor.go.
type View struct {
	f *File
	// pin is the snapshot the view reads at: its LSN, and the pool's
	// reader slot that holds it, which Unpin clears. File's own live view
	// carries LiveLSN, holds no slot and is never unpinned.
	pin buffer.SnapshotPin
	// acct is charged with what the view's reads cost (nil: nobody is).
	acct *metrics.Account
}

// live is the view File's own search operations run on: placements
// from the overlay's live end, bytes from the live frames, no pin to
// release, the current write transaction's account. The owner
// serializes it against mutations, as File's contract demands.
func (f *File) live() View {
	return View{f: f, pin: buffer.SnapshotPin{LSN: buffer.LiveLSN}, acct: f.acct}
}

// PinView pins the current committed LSN in a pool reader slot and
// returns a value view at it, carrying the pin. The caller owns the pin
// and must release it with Unpin exactly once.
func (f *File) PinView() View {
	return View{f: f, pin: f.pool.AcquireSnapshot()}
}

// Charging returns the view with its reads charged to a.
func (s View) Charging(a *metrics.Account) View {
	s.acct = a
	return s
}

// Unpin releases the pin of a view from PinView — the slot the view
// carries, not whichever slot holds the same LSN (not idempotent — the
// single owner releases it once). It is a File method, not a View one,
// so a Snapshot, which embeds its View, cannot release its pin except
// through Close.
func (f *File) Unpin(v View) { f.pool.ReleaseSnapshot(v.pin) }

// LSN returns the pinned commit LSN.
func (s View) LSN() uint64 { return s.pin.LSN }

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
		s.f.Unpin(s.View)
	}
}

// Has reports whether node id exists as of the snapshot.
func (s View) Has(id graph.NodeID) bool {
	_, ok := s.f.overlay.Load().lookup(id, s.pin.LSN)
	return ok
}

// SpatialCandidates probes the live spatial index for rect's candidate
// ids (planner page-set resolution; approximate against the pinned LSN
// exactly as the planner's statistics are).
func (s View) SpatialCandidates(rect geom.Rect, fn func(id graph.NodeID) bool) error {
	return s.f.SpatialCandidates(rect, fn)
}
