package netfile

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"

	"ccam/internal/buffer"
	"ccam/internal/geom"
	"ccam/internal/graph"
	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// Options configures a data file.
type Options struct {
	// PageSize is the disk block size in bytes (the paper sweeps 512,
	// 1k, 2k, 4k).
	PageSize int
	// PoolPages is the data buffer pool capacity in pages. Route
	// evaluation experiments use 1, as in the paper.
	PoolPages int
	// PoolShards splits the data buffer pool into this many
	// independently latched shards (0 or 1 keeps the single-latch
	// pool); buffer.AutoShards picks a value from GOMAXPROCS.
	PoolShards int
	// Bounds is the geographic extent used for Z-order keys in the
	// spatial index. Zero value disables spatial keys (they quantize to
	// a single cell).
	Bounds geom.Rect
	// Store supplies the data page store; nil selects an in-memory
	// simulated disk.
	Store storage.Store
	// Metrics, when non-nil, instruments the buffer pool's physical I/O:
	// it observes the latency of every page read and store write into
	// histograms of this registry, and the registry's checksum-failure
	// counter reads the pool's count. What an operation costs is not
	// counted here but in the account its caller hands the view
	// (View.Charging) or the file (File.SetAccount).
	Metrics *metrics.Registry
}

// File is the shared data file: slotted data pages holding node
// records, a clock-sweep buffer pool, the node index (node id → record
// id, page and slot; the versioned overlay of snapshot.go, read at its
// live end) and the spatial index (the Z-order key run, position → node
// id). Both indexes are memory resident, as the paper assumes, so data-page I/O —
// the paper's metric — is metered in isolation.
//
// Concurrency: the query operations (Find, GetASuccessor,
// GetSuccessors, EvaluateRoute, RangeQuery, Nearest, Scan and the
// read-only accessors) keep no per-call state on File — scratch
// buffers and cursors are locals, decoded records own their memory —
// so any number of them may run in parallel; the buffer pool and page
// stores carry their own latches. Mutating operations (record
// insert/update/delete, page allocation, reorganization, ResetIO,
// Flush) touch the page table and the indexes without
// internal locking and must be serialized against all other calls on
// the live file by the owner. The root ccam.Store serializes them on
// its writer mutex and runs every query on a pinned View instead, which
// reads beside a mutation (snapshot.go).
type File struct {
	pageSize int
	pool     *buffer.Pool
	spatial  *zorderIndex
	quant    geom.Quantizer
	// pages is the live page set and the free-space map in one.
	pages pageTable
	// acct is the account of the write transaction in flight (nil outside
	// one): the live file's page requests, allocations, frees and index
	// lookups — the mutation's own and the access method's maintenance
	// reads — are charged to it. The writer is alone on the live file, so
	// a plain field will do.
	acct *metrics.Account
	// wal and fstore are set by AttachWAL: mutations log logical
	// records, the pool runs no-steal, and page frees are deferred to
	// checkpoints (pendingFree, in free order).
	wal         *storage.WAL
	fstore      *storage.FileStore
	pendingFree []storage.PageID

	// overlay is the node index (see snapshot.go): the versioned
	// node→record-id map every reader resolves placements through — a pinned
	// view at its LSN, the live file at the live end; curDelta/verActive
	// are writer-side batch bookkeeping. spatMu lets lock-free snapshot
	// range queries share the live spatial index with the serialized
	// writer.
	overlay   atomic.Pointer[overlayState]
	curDelta  *overlayDelta
	verActive bool
	spatMu    sync.RWMutex
	// slotBits is how many low bits of a record id hold the slot
	// (snapshot.go); the page size fixes it.
	slotBits uint

	// pag is the PAG summary (pag.go). pagMu guards it against the
	// readers that run beside the serialized writer: planners and gauges.
	// pend is the writer's note of the mutation in progress, taken into
	// pag when it settles.
	pag   pagSummary
	pagMu sync.RWMutex
	pend  pagPending
}

// pageTable holds the free bytes of every live data page, assuming
// compaction, at entry pid; a negative entry is an id that is no data
// page. Like the node index it is memory resident: consulting it costs
// no data-page I/O, and every mutation keeps it exact. The entries sit
// in chunks of 1<<pageChunkBits ids, each allocated with the first page
// in its range, so a store whose few pages sit at high ids costs a
// chunk, not an entry per id below them. The entries take no lock: only
// the serialized writer, and readers the owner serializes with it, use
// them. The live page count is what readers beside the writer read.
type pageTable struct {
	chunks []*[pageChunk]int32
	live   atomic.Int64
}

const (
	pageChunkBits = 10
	pageChunk     = 1 << pageChunkBits
)

// free returns page pid's free bytes, and whether pid is a data page.
func (t *pageTable) free(pid storage.PageID) (int, bool) {
	if c := int(pid >> pageChunkBits); c < len(t.chunks) && t.chunks[c] != nil {
		if n := t.chunks[c][pid&(pageChunk-1)]; n >= 0 {
			return int(n), true
		}
	}
	return 0, false
}

// set records free bytes for page pid (-1: pid is no data page).
func (t *pageTable) set(pid storage.PageID, free int) {
	c := int(pid >> pageChunkBits)
	if c >= len(t.chunks) {
		t.chunks = append(t.chunks, make([]*[pageChunk]int32, c+1-len(t.chunks))...)
	}
	if t.chunks[c] == nil {
		t.chunks[c] = new([pageChunk]int32)
		for i := range t.chunks[c] {
			t.chunks[c][i] = -1
		}
	}
	e := &t.chunks[c][pid&(pageChunk-1)]
	if was, is := *e >= 0, free >= 0; is && !was {
		t.live.Add(1)
	} else if was && !is {
		t.live.Add(-1)
	}
	*e = int32(free)
}

// each calls fn with every data page and its free bytes in ascending
// page order until fn returns false.
func (t *pageTable) each(fn func(pid storage.PageID, free int) bool) {
	for c, chunk := range t.chunks {
		if chunk == nil {
			continue
		}
		for i, n := range chunk {
			if n >= 0 && !fn(storage.PageID(c<<pageChunkBits|i), int(n)) {
				return
			}
		}
	}
}

// Create opens a fresh, empty data file.
func Create(opts Options) (*File, error) {
	if opts.PageSize < 128 {
		return nil, fmt.Errorf("netfile: page size %d too small", opts.PageSize)
	}
	if opts.PoolPages <= 0 {
		opts.PoolPages = 32
	}
	st := opts.Store
	if st == nil {
		st = storage.NewMemStore(opts.PageSize)
	}
	if st.PageSize() != opts.PageSize {
		return nil, fmt.Errorf("netfile: store page size %d != %d", st.PageSize(), opts.PageSize)
	}
	quant := geom.NewQuantizer(opts.Bounds)
	f := &File{
		pageSize: opts.PageSize,
		pool:     buffer.NewPoolShards(st, opts.PoolPages, opts.PoolShards),
		spatial:  &zorderIndex{quant: quant},
		quant:    quant,
		pag:      newPAGSummary(),
		pend:     pagPending{index: make(map[graph.NodeID]int)},
		slotBits: slotBits(opts.PageSize),
	}
	f.overlay.Store(&overlayState{table: newNodeTable(0)})
	// A miss's latency is ccam_storage_read_ns (a hit is counted, not
	// timed). A damaged page the pool read is counted, not just fatal;
	// only a checked store verifies checksums, so only over one is the
	// count a series.
	reg := opts.Metrics
	var checksumFailures *metrics.Counter
	if _, ok := st.(*storage.CheckedStore); ok {
		checksumFailures = reg.Counter("ccam_storage_checksum_failures_total")
	}
	f.pool.Instrument(reg.Histogram("ccam_storage_read_ns"), reg.Histogram("ccam_storage_write_ns"), checksumFailures)
	return f, nil
}

// SetAccount makes a the account the live file charges until the next
// SetAccount (nil: nobody). The owner's write transaction sets it for
// its duration, under the lock that serializes the live file.
func (f *File) SetAccount(a *metrics.Account) { f.acct = a }

// PageSize returns the data page size.
func (f *File) PageSize() int { return f.pageSize }

// Pool returns the data buffer pool (for experiments that probe or
// reset buffering).
func (f *File) Pool() *buffer.Pool { return f.pool }

// NumNodes returns the number of stored records. Like PAG, it settles
// the mutation in progress first.
func (f *File) NumNodes() int {
	return f.PAG().Stats().Nodes
}

// NumPages returns the number of live data pages. Safe for concurrent
// use beside mutations that allocate and free pages.
func (f *File) NumPages() int { return int(f.pages.live.Load()) }

// Quantizer returns the Z-order quantizer of the spatial index.
func (f *File) Quantizer() geom.Quantizer { return f.quant }

// DataIO returns the physical data-page I/O counters: the buffer
// pool's, which makes every transfer between the file and its store.
func (f *File) DataIO() storage.Stats { return f.pool.IO() }

// ResetIO flushes and empties the data buffer pool and zeroes its
// counters, so the next operation is measured cold.
func (f *File) ResetIO() error {
	if err := f.pool.Reset(); err != nil {
		return err
	}
	f.pool.ResetStats()
	return nil
}

// PageOf returns the data page holding node id, via the node index at
// its live end: one index visit (the lookup costs no data-page I/O).
func (f *File) PageOf(id graph.NodeID) (storage.PageID, error) {
	r, err := f.ridOf(id)
	if err != nil {
		return storage.InvalidPageID, err
	}
	return f.ridPage(r), nil
}

// ridOf returns node id's record id at the live end: one index visit.
func (f *File) ridOf(id graph.NodeID) (rid, error) {
	f.acct.IndexVisit()
	r, ok := f.overlay.Load().lookup(id, buffer.LiveLSN)
	if !ok {
		return noRID, fmt.Errorf("%w: %d", ErrNotFound, id)
	}
	return r, nil
}

// Has reports whether node id is stored.
func (f *File) Has(id graph.NodeID) bool {
	return f.live().Has(id)
}

// AllocatePage adds a fresh, empty data page and returns its id. A page
// id past what a record id can name fails with ErrPageLimit before
// anything is written to the page: it goes back to the store.
func (f *File) AllocatePage() (storage.PageID, error) {
	pid, b, err := f.pool.FetchNewTraced(f.acct)
	if err != nil {
		return storage.InvalidPageID, fmt.Errorf("netfile: allocate data page: %w", err)
	}
	if err := f.checkPageID(pid); err != nil {
		f.pool.Unpin(pid, false)
		if ferr := f.pool.Free(pid); ferr != nil {
			err = fmt.Errorf("%w (and its free failed: %v)", err, ferr)
		}
		return storage.InvalidPageID, fmt.Errorf("netfile: allocate data page: %w", err)
	}
	sp := storage.NewSlottedPage(b)
	f.pages.set(pid, sp.FreeSpace())
	if err := f.pool.Unpin(pid, true); err != nil {
		return storage.InvalidPageID, err
	}
	return pid, nil
}

// FreePage releases an empty data page. Under a WAL the physical free
// is deferred to the next checkpoint: the store keeps counting the
// page as live, so it cannot be recycled (and its old bytes
// overwritten) before the checkpoint that records the free is durable.
func (f *File) FreePage(pid storage.PageID) error {
	if _, ok := f.pages.free(pid); !ok {
		return fmt.Errorf("netfile: free of unknown page %d", pid)
	}
	// Preserve the committed image for pinned snapshots before the
	// frame is discarded: the page id may be recycled (and its bytes
	// overwritten) while an old reader can still resolve nodes to it.
	if f.pool.VersionBatchActive() {
		if b, err := f.pool.FetchTraced(pid, f.acct); err == nil {
			f.pool.SaveVersion(pid, b)
			f.pool.Unpin(pid, false)
		}
	}
	f.pages.set(pid, -1)
	if f.wal != nil {
		f.pool.Discard(pid)
		f.pendingFree = append(f.pendingFree, pid)
		return nil
	}
	if err := f.pool.Free(pid); err != nil {
		return fmt.Errorf("netfile: free page %d: %w", pid, err)
	}
	return nil
}

// Pages returns the live data page ids in ascending order.
func (f *File) Pages() []storage.PageID {
	out := make([]storage.PageID, 0, f.NumPages())
	f.pages.each(func(pid storage.PageID, _ int) bool {
		out = append(out, pid)
		return true
	})
	return out
}

// withPage runs fn with the slotted view of a pinned page; the page is
// unpinned afterwards, marked dirty when fn reports it wrote.
func (f *File) withPage(pid storage.PageID, fn func(sp *storage.SlottedPage) (dirty bool, err error)) error {
	return f.pinPage(pid, false, fn)
}

// withPageWrite is withPage for mutators: before the slotted view is
// handed to fn, the page's current (committed) bytes are captured into
// the pool's version chain when a version batch is open, so pinned
// snapshot readers keep an LSN-consistent image of the page.
func (f *File) withPageWrite(pid storage.PageID, fn func(sp *storage.SlottedPage) (dirty bool, err error)) error {
	return f.pinPage(pid, true, fn)
}

func (f *File) pinPage(pid storage.PageID, save bool, fn func(sp *storage.SlottedPage) (dirty bool, err error)) error {
	b, err := f.pool.FetchTraced(pid, f.acct)
	if err != nil {
		return err
	}
	if save {
		f.pool.SaveVersion(pid, b)
	}
	sp, err := storage.LoadSlottedPage(b)
	if err != nil {
		f.pool.Unpin(pid, false)
		return err
	}
	dirty, err := fn(sp)
	if uerr := f.pool.Unpin(pid, dirty); uerr != nil && err == nil {
		err = uerr
	}
	return err
}

// errReservedID refuses graph.InvalidNodeID, the "no node" sentinel,
// which the node index cannot hold (see nodeTable.put).
var errReservedID = fmt.Errorf("netfile: node id %d is reserved", graph.InvalidNodeID)

// InsertRecordAt stores rec on page pid and indexes it. It fails with
// ErrDuplicate when the node is already stored, with storage.ErrPageFull
// when the record does not fit, and on the reserved id
// graph.InvalidNodeID, leaving the file unchanged.
func (f *File) InsertRecordAt(rec *Record, pid storage.PageID) error {
	if rec.ID == graph.InvalidNodeID {
		return errReservedID
	}
	if f.Has(rec.ID) {
		return fmt.Errorf("%w: %d", ErrDuplicate, rec.ID)
	}
	r, err := f.storeRecord(rec, pid)
	if err != nil {
		return err
	}
	f.notePlacement(rec.ID, r)
	return nil
}

// storeRecord writes rec to page pid and enters it in the spatial
// index, and returns the record id it got; the caller notes the
// placement, which is what indexes the node.
func (f *File) storeRecord(rec *Record, pid storage.PageID) (rid, error) {
	if _, ok := f.pages.free(pid); !ok {
		return noRID, fmt.Errorf("netfile: insert into unknown page %d", pid)
	}
	enc := EncodeRecord(rec)
	// A stored record's node was on no page (MoveRecord has captured it
	// already, from the page it left).
	f.pagCapture(rec.ID, storage.InvalidPageID, nil)
	r := noRID
	err := f.withPageWrite(pid, func(sp *storage.SlottedPage) (bool, error) {
		slot, err := sp.Insert(enc)
		if err != nil {
			return false, err
		}
		r = f.rid(pid, slot)
		f.pages.set(pid, sp.FreeSpace())
		f.pagWrote(rec.ID, pid, enc)
		return true, nil
	})
	if err != nil {
		return noRID, err
	}
	f.spatMu.Lock()
	f.spatial.put(rec.Pos, rec.ID)
	f.spatMu.Unlock()
	return r, nil
}

// UpdateRecord rewrites node rec.ID's record in place on its current
// page; it keeps its slot, and so its record id. Grows that overflow the
// page return storage.ErrPageFull with the file unchanged.
func (f *File) UpdateRecord(rec *Record) error {
	r, err := f.ridOf(rec.ID)
	if err != nil {
		return err
	}
	pid := f.ridPage(r)
	enc := EncodeRecord(rec)
	return f.withPageWrite(pid, func(sp *storage.SlottedPage) (bool, error) {
		v, err := f.recordAt(sp, r, rec.ID)
		if err != nil {
			return false, err
		}
		f.pagCapture(rec.ID, pid, v.buf)
		if err := sp.Update(f.ridSlot(r), enc); err != nil {
			return false, err
		}
		f.pages.set(pid, sp.FreeSpace())
		f.pagWrote(rec.ID, pid, enc)
		return true, nil
	})
}

// DeleteRecord removes node id's record, returning its last value.
func (f *File) DeleteRecord(id graph.NodeID) (*Record, error) {
	rec, err := f.removeRecord(id)
	if err == nil {
		f.notePlacement(id, noRID)
	}
	return rec, err
}

// removeRecord takes node id's record off its page and out of the
// spatial index; the caller notes the placement.
func (f *File) removeRecord(id graph.NodeID) (*Record, error) {
	r, err := f.ridOf(id)
	if err != nil {
		return nil, err
	}
	pid := f.ridPage(r)
	var rec *Record
	err = f.withPageWrite(pid, func(sp *storage.SlottedPage) (bool, error) {
		v, err := f.recordAt(sp, r, id)
		if err != nil {
			return false, err
		}
		rec = v.record()
		f.pagCapture(id, pid, v.buf)
		if err := sp.Delete(f.ridSlot(r)); err != nil {
			return false, err
		}
		f.pages.set(pid, sp.FreeSpace())
		f.pagWrote(id, storage.InvalidPageID, nil)
		return true, nil
	})
	if err != nil {
		return nil, err
	}
	f.spatMu.Lock()
	err = f.spatial.remove(rec.Pos, id)
	if err == nil && f.verActive {
		// Keep the spatial entry reachable for pinned snapshots: range
		// queries at an older LSN union these with the live index.
		d := f.batchDelta()
		d.removed = append(d.removed, spatialEntry{pos: rec.Pos, id: id})
	}
	f.spatMu.Unlock()
	if err != nil {
		return nil, fmt.Errorf("netfile: spatial delete %d: %w", id, err)
	}
	return rec, nil
}

// MoveRecord relocates a record to page dst. It is the reorganization
// primitive. The move is noted as one placement change — until then the
// node index still names the old page.
func (f *File) MoveRecord(id graph.NodeID, dst storage.PageID) error {
	rec, err := f.removeRecord(id)
	if err != nil {
		return err
	}
	r, err := f.storeRecord(rec, dst)
	if err != nil {
		return fmt.Errorf("netfile: move %d to page %d: %w", id, dst, err)
	}
	f.notePlacement(id, r)
	return nil
}

// NodesOnPage returns the node ids stored on pid.
func (f *File) NodesOnPage(pid storage.PageID) ([]graph.NodeID, error) {
	var out []graph.NodeID
	err := f.withPage(pid, func(sp *storage.SlottedPage) (bool, error) {
		for i, n := 0, sp.NumSlots(); i < n; i++ {
			raw, live, err := sp.Record(i)
			if err != nil {
				return false, err
			}
			if !live {
				continue
			}
			id, err := RecordID(raw)
			if err != nil {
				return false, err
			}
			out = append(out, id)
		}
		return false, nil
	})
	return out, err
}

// RecordsOnPage returns decoded records of every node on pid.
func (f *File) RecordsOnPage(pid storage.PageID) ([]*Record, error) {
	var out []*Record
	err := f.withPage(pid, func(sp *storage.SlottedPage) (bool, error) {
		var err error
		out, err = decodePage(sp, nil)
		return false, err
	})
	return out, err
}

// UsedBytesOn returns the live record bytes on page pid.
func (f *File) UsedBytesOn(pid storage.PageID) (int, error) {
	var used int
	err := f.withPage(pid, func(sp *storage.SlottedPage) (bool, error) {
		used = sp.UsedBytes()
		return false, nil
	})
	return used, err
}

// BulkLoad writes the given page groups of network g into the file.
// Each group becomes one data page; groups must fit.
//
// The load is staged for throughput: page images are encoded in
// parallel off to the side (graph reads are pure, so workers share g),
// then written out sequentially in group order — page ids are assigned
// in that deterministic order — and finally installed: the Z-order
// spatial index is built bottom-up from a sorted run instead of one
// descent-and-split insert per record, the node index is one map fill,
// and the PAG summary is filled from g (FillPAG).
func (f *File) BulkLoad(g *graph.Network, groups [][]graph.NodeID) error {
	if f.NumNodes() != 0 {
		return fmt.Errorf("netfile: bulk load into non-empty file")
	}
	// Stage 1: encode every group into a detached page image.
	bufs := make([][]byte, len(groups))
	var firstErr error
	var errOnce sync.Once
	// failed flips on the first error; workers must keep draining work
	// (skipping it) rather than return, or the producer's unbuffered
	// send would block forever once every worker had bailed out.
	var failed atomic.Bool
	fail := func(err error) {
		errOnce.Do(func() { firstErr = err })
		failed.Store(true)
	}
	work := make(chan int)
	var wg sync.WaitGroup
	workers := runtime.GOMAXPROCS(0)
	if workers > len(groups) {
		workers = len(groups)
	}
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for gi := range work {
				if failed.Load() {
					continue
				}
				buf := make([]byte, f.pageSize)
				sp := storage.NewSlottedPage(buf)
				ok := true
				for _, id := range groups[gi] {
					rec, err := RecordFromNode(g, id)
					if err != nil {
						fail(fmt.Errorf("netfile: bulk load group %d: %w", gi, err))
						ok = false
						break
					}
					if _, err := sp.Insert(EncodeRecord(rec)); err != nil {
						fail(fmt.Errorf("netfile: bulk load group %d node %d: %w", gi, id, err))
						ok = false
						break
					}
				}
				if ok {
					bufs[gi] = buf
				}
			}
		}()
	}
	for gi := range groups {
		work <- gi
	}
	close(work)
	wg.Wait()
	if firstErr != nil {
		return firstErr
	}

	// Stage 2: sequential write-out in group order, so group i always
	// lands on the i-th allocated page id regardless of worker count.
	pages := make([]loadedPage, len(bufs))
	for gi, buf := range bufs {
		pid, b, err := f.pool.FetchNew()
		if err == nil {
			err = f.checkPageID(pid)
		}
		if err != nil {
			return fmt.Errorf("netfile: bulk load allocate page: %w", err)
		}
		copy(b, buf)
		if err := f.pool.Unpin(pid, true); err != nil {
			return err
		}
		pages[gi] = loadedPage{pid: pid, img: buf}
	}

	// Stage 3: the memory-resident structures.
	if err := f.install(pages); err != nil {
		return fmt.Errorf("netfile: bulk load: %w", err)
	}
	f.FillPAG(g)
	return f.pool.FlushAll()
}

// loadedPage is one data page as build and open hold it once its bytes
// are on the store: its id and its image.
type loadedPage struct {
	pid storage.PageID
	img []byte
}

// install makes pages the contents of an empty file: it fills the live
// page set, the free-space map, the spatial index and the node index
// (the overlay's table, sized for every record up front, each record
// at its slot's record id) in one walk over the page images, reading
// each record in place. A node id stored twice fails with ErrDuplicate:
// each node has one page. A page id past maxPageID fails with
// ErrPageLimit. The caller fills the PAG summary.
func (f *File) install(pages []loadedPage) error {
	for _, pg := range pages {
		if err := f.checkPageID(pg.pid); err != nil {
			return err
		}
	}
	sps := make([]storage.SlottedPage, len(pages))
	slots := 0
	for i, pg := range pages {
		sps[i], _ = storage.ViewSlottedPage(pg.img) // build and open have checked every image
		f.pages.set(pg.pid, sps[i].FreeSpace())
		slots += sps[i].NumSlots()
	}
	table := newNodeTable(slots)
	spatial := make([]spatialEntry, 0, slots)
	for i, pg := range pages {
		err := eachRecord(&sps[i], func(slot int, v recordView) error {
			id := v.id()
			if id == graph.InvalidNodeID {
				return errReservedID
			}
			if other, dup := table.get(id); dup {
				return fmt.Errorf("%w: node %d is stored on page %d and on page %d", ErrDuplicate, id, f.ridPage(other), pg.pid)
			}
			table.put(id, f.rid(pg.pid, slot))
			spatial = append(spatial, spatialEntry{pos: v.pos(), id: id})
			return nil
		})
		if err != nil {
			return err
		}
	}
	f.spatial.bulkLoad(spatial)
	f.resetVersions(table)
	return nil
}

// Placement extracts node -> data page from the index, the input to
// CRR/WCRR.
func (f *File) Placement() graph.Placement {
	return f.placements(buffer.LiveLSN)
}

// Flush writes all buffered dirty pages to the store.
func (f *File) Flush() error { return f.pool.FlushAll() }

// FreeSpace returns the free bytes on page pid from the memory-resident
// free-space map (no data-page I/O).
func (f *File) FreeSpace(pid storage.PageID) (int, error) {
	free, ok := f.pages.free(pid)
	if !ok {
		return 0, fmt.Errorf("netfile: unknown page %d", pid)
	}
	return free, nil
}

// FindPageWithSpace returns the lowest-numbered data page with at least
// need free bytes, consulting only the free-space map.
func (f *File) FindPageWithSpace(need int) (storage.PageID, bool) {
	best := storage.InvalidPageID
	f.pages.each(func(pid storage.PageID, free int) bool {
		if free >= need {
			best = pid
		}
		return best == storage.InvalidPageID
	})
	return best, best != storage.InvalidPageID
}

// ReplacePageContents rewrites page pid to hold exactly recs, updating
// the spatial index and noting the placement of every record written. It is the
// reorganization primitive: Reorganize() reads a set of pages,
// re-clusters their records, and replaces each page's contents. Records
// are assumed to have been removed (or about to be overwritten) from
// their previous pages by companion ReplacePageContents calls.
func (f *File) ReplacePageContents(pid storage.PageID, recs []*Record) error {
	if _, ok := f.pages.free(pid); !ok {
		return fmt.Errorf("netfile: replace contents of unknown page %d", pid)
	}
	b, err := f.pool.FetchTraced(pid, f.acct)
	if err != nil {
		return err
	}
	f.pool.SaveVersion(pid, b)
	// Capture the records the page loses and those it gains as the
	// summary counts them: the latter are as stored on their old pages.
	if old, err := storage.ViewSlottedPage(b); err == nil {
		eachRecord(&old, func(_ int, v recordView) error {
			f.pagCapture(v.id(), pid, v.buf)
			return nil
		})
	}
	sp := storage.NewSlottedPage(b)
	rids := make([]rid, len(recs))
	for i, rec := range recs {
		enc := EncodeRecord(rec)
		f.pagCapture(rec.ID, f.livePage(rec.ID), enc)
		slot, err := sp.Insert(enc)
		if err != nil {
			f.pool.Unpin(pid, true)
			return fmt.Errorf("netfile: replace contents of page %d with %d records: %w", pid, len(recs), err)
		}
		rids[i] = f.rid(pid, slot)
		f.pagWrote(rec.ID, pid, enc)
	}
	f.pages.set(pid, sp.FreeSpace())
	if err := f.pool.Unpin(pid, true); err != nil {
		return err
	}
	for i, rec := range recs {
		f.spatMu.Lock()
		f.spatial.put(rec.Pos, rec.ID)
		f.spatMu.Unlock()
		f.notePlacement(rec.ID, rids[i])
	}
	return nil
}

// OpenFromStoreOpts reconstructs a File over an existing page store
// (e.g. a reopened storage.FileStore). Data pages are scanned once to
// rebuild the memory-resident structures — node index, spatial index,
// free-space map and PAG summary, each record read in place — which
// matches the paper's assumption that index structures live in main
// memory. A store holding one node id on two pages fails with
// ErrDuplicate. The scan reads the store directly, so the returned
// file's counters start at zero. Pool size, sharding and metrics are taken from opts;
// PageSize, Store and Bounds are derived from the store's contents, and
// any values supplied for them are ignored.
func OpenFromStoreOpts(st storage.Store, opts Options) (*File, error) {
	if opts.PoolPages <= 0 {
		opts.PoolPages = 32
	}
	pageSize := st.PageSize()
	pids := st.PageIDs()

	// Read every page image first: the spatial bounds come from their
	// records, read in place.
	imgs := make([]byte, len(pids)*pageSize)
	pages := make([]loadedPage, len(pids))
	var bounds geom.Rect
	first := true
	for i, pid := range pids {
		img := imgs[i*pageSize : (i+1)*pageSize : (i+1)*pageSize]
		if err := st.ReadPage(pid, img); err != nil {
			return nil, fmt.Errorf("netfile: open: read page %d: %w", pid, err)
		}
		sp, err := storage.ViewSlottedPage(img)
		if err == nil {
			err = eachRecord(&sp, func(_ int, v recordView) error {
				p := v.pos()
				if first {
					bounds, first = geom.Rect{Min: p, Max: p}, false
				}
				bounds.Min.X, bounds.Min.Y = min(bounds.Min.X, p.X), min(bounds.Min.Y, p.Y)
				bounds.Max.X, bounds.Max.Y = max(bounds.Max.X, p.X), max(bounds.Max.Y, p.Y)
				return nil
			})
		}
		if err != nil {
			return nil, fmt.Errorf("netfile: open: page %d: %w", pid, err)
		}
		pages[i] = loadedPage{pid: pid, img: img}
	}

	opts.PageSize = pageSize
	opts.Store = st
	opts.Bounds = bounds
	f, err := Create(opts)
	if err != nil {
		return nil, err
	}
	if err := f.install(pages); err != nil {
		return nil, fmt.Errorf("netfile: open: %w", err)
	}
	f.fillPAGFromPages(pages)
	return f, nil
}
