package netfile

import (
	"errors"
	"fmt"
	"path/filepath"
	"sync"
	"testing"

	"ccam/internal/graph"
	"ccam/internal/metrics"
	"ccam/internal/storage"
)

// errInjected marks a simulated device failure.
var errInjected = errors.New("injected I/O failure")

// failingStore wraps a Store and starts failing reads/writes after a
// given number of operations — the failure-injection harness for the
// layers above.
type failingStore struct {
	storage.Store
	mu        sync.Mutex
	remaining int // operations before failures begin
}

func newFailingStore(pageSize, okOps int) *failingStore {
	return &failingStore{Store: storage.NewMemStore(pageSize), remaining: okOps}
}

func (f *failingStore) tick() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.remaining <= 0 {
		return errInjected
	}
	f.remaining--
	return nil
}

func (f *failingStore) ReadPage(id storage.PageID, buf []byte) error {
	if err := f.tick(); err != nil {
		return fmt.Errorf("read page %d: %w", id, err)
	}
	return f.Store.ReadPage(id, buf)
}

func (f *failingStore) WritePage(id storage.PageID, buf []byte) error {
	if err := f.tick(); err != nil {
		return fmt.Errorf("write page %d: %w", id, err)
	}
	return f.Store.WritePage(id, buf)
}

func (f *failingStore) WritePages(first storage.PageID, run []byte) error {
	return storage.WritePagesEach(f, first, run)
}

func (f *failingStore) Allocate() (storage.PageID, error) {
	if err := f.tick(); err != nil {
		return storage.InvalidPageID, err
	}
	return f.Store.Allocate()
}

func TestOperationsSurviveDeviceFailure(t *testing.T) {
	// Build succeeds on a healthy store, then the device starts
	// failing: every operation must return a wrapped error — never
	// panic, never report success.
	g := testNetwork(t)

	for _, okOps := range []int{0, 1, 3, 10, 50} {
		t.Run(fmt.Sprintf("okOps=%d", okOps), func(t *testing.T) {
			st := newFailingStore(1024, 1<<30)
			f, err := Create(Options{PageSize: 1024, PoolPages: 4, Bounds: g.Bounds(), Store: st})
			if err != nil {
				t.Fatal(err)
			}
			groups := packGroups(t, g)
			if err := f.BulkLoad(g, groups); err != nil {
				t.Fatal(err)
			}
			if err := f.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			// Arm the failure.
			st.mu.Lock()
			st.remaining = okOps
			st.mu.Unlock()

			failed := graph.InvalidNodeID
			for _, id := range g.NodeIDs() {
				rec, err := f.Find(id)
				if err != nil {
					if !errors.Is(err, errInjected) {
						t.Fatalf("Find(%d) failed with foreign error: %v", id, err)
					}
					failed = id
					break
				}
				if rec.ID != id {
					t.Fatalf("Find(%d) returned %d under failure", id, rec.ID)
				}
			}
			if failed == graph.InvalidNodeID {
				t.Fatal("device failure never surfaced")
			}
			// A mutation that needs the unloadable page fails cleanly
			// too. (Operations served entirely from buffered pages may
			// still succeed — that is what the buffer pool is for.)
			if _, err := f.DeleteRecord(failed); !errors.Is(err, errInjected) {
				t.Fatalf("delete of unloadable node = %v", err)
			}
		})
	}
}

func TestBuildFailsCleanlyOnDeadStore(t *testing.T) {
	g := testNetwork(t)
	st := newFailingStore(1024, 2) // dies almost immediately
	f, err := Create(Options{PageSize: 1024, PoolPages: 4, Bounds: g.Bounds(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	err = f.BulkLoad(g, packGroups(t, g))
	if err == nil {
		t.Fatal("bulk load succeeded on a dying device")
	}
	if !errors.Is(err, errInjected) {
		t.Fatalf("foreign error: %v", err)
	}
}

func TestOpenFromStoreFailsCleanly(t *testing.T) {
	g := testNetwork(t)
	st := newFailingStore(1024, 1<<30)
	f, err := Create(Options{PageSize: 1024, PoolPages: 8, Bounds: g.Bounds(), Store: st})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, packGroups(t, g)); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	st.mu.Lock()
	st.remaining = 3
	st.mu.Unlock()
	if _, err := OpenFromStoreOpts(st, Options{PoolPages: 8}); !errors.Is(err, errInjected) {
		t.Fatalf("OpenFromStoreOpts on dying device = %v", err)
	}
}

// TestOpenFromStoreRejectsDuplicateNode hand-builds a store whose two
// data pages both carry node 7: open must name the fault instead of
// keeping whichever page it read last.
func TestOpenFromStoreRejectsDuplicateNode(t *testing.T) {
	st := storage.NewMemStore(256)
	for i := 0; i < 2; i++ {
		pid, err := st.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		buf := make([]byte, st.PageSize())
		sp := storage.NewSlottedPage(buf)
		for _, id := range []graph.NodeID{7, graph.NodeID(10 + i)} {
			if _, err := sp.Insert(EncodeRecord(&Record{ID: id})); err != nil {
				t.Fatal(err)
			}
		}
		if err := st.WritePage(pid, buf); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := OpenFromStoreOpts(st, Options{PoolPages: 4}); !errors.Is(err, ErrDuplicate) {
		t.Fatalf("OpenFromStoreOpts over a node stored twice = %v, want wrapped ErrDuplicate", err)
	}
}

// packGroups sequentially packs g for tests that do not care about
// clustering quality.
func packGroups(t *testing.T, g *graph.Network) [][]graph.NodeID {
	t.Helper()
	var groups [][]graph.NodeID
	var group []graph.NodeID
	used := 0
	budget := PageBudget(1024)
	sizer := StoredSizer(g)
	for _, id := range g.NodeIDs() {
		s := sizer(id)
		if used+s > budget && len(group) > 0 {
			groups = append(groups, group)
			group, used = nil, 0
		}
		group = append(group, id)
		used += s
	}
	return append(groups, group)
}

// TestChecksumFailureSurfacesThroughFile wires a CheckedStore under the
// file: on-disk corruption (injected straight into the inner store,
// below the checksum layer) must surface from Find as a wrapped
// storage.ErrChecksum — never as a silently wrong record — and must
// increment ccam_storage_checksum_failures_total.
func TestChecksumFailureSurfacesThroughFile(t *testing.T) {
	g := testNetwork(t)
	ms := storage.NewMemStore(1024 + storage.ChecksumTrailerLen)
	cs, err := storage.NewCheckedStore(ms)
	if err != nil {
		t.Fatal(err)
	}
	reg := metrics.NewRegistry()
	f, err := Create(Options{PageSize: cs.PageSize(), PoolPages: 2, Bounds: g.Bounds(),
		Store: cs, Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, packGroups(t, g)); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}
	if err := f.Pool().Reset(); err != nil {
		t.Fatal(err)
	}

	// Flip one payload bit of every data page, beneath the checksum
	// layer: now every uncached Find must fail loudly.
	raw := make([]byte, ms.PageSize())
	for _, pid := range ms.PageIDs() {
		if err := ms.ReadPage(pid, raw); err != nil {
			t.Fatal(err)
		}
		raw[100] ^= 0x04
		if err := ms.WritePage(pid, raw); err != nil {
			t.Fatal(err)
		}
	}

	var failures int
	for _, id := range g.NodeIDs() {
		rec, err := f.Find(id)
		if err == nil {
			t.Fatalf("Find(%d) returned record %d from a corrupted page", id, rec.ID)
		}
		if !errors.Is(err, storage.ErrChecksum) {
			t.Fatalf("Find(%d) = %v, want wrapped storage.ErrChecksum", id, err)
		}
		failures++
	}
	if failures == 0 {
		t.Fatal("corruption never surfaced")
	}
	if got := reg.Counter("ccam_storage_checksum_failures_total").Value(); got == 0 {
		t.Fatal("ccam_storage_checksum_failures_total not incremented")
	}
}

// TestStorageSeriesIgnoreTheWrappers: the buffer pool times and counts
// every physical transfer itself, so the storage series mean the same
// whatever wraps the file's store — a plain MemStore, a CheckedStore
// over a FileStore, a CheckedStore over a FaultStore. The read
// histogram holds one sample per pool miss, the write histogram has
// samples once the load is flushed, and a read that fails its checksum
// adds exactly one to ccam_storage_checksum_failures_total.
func TestStorageSeriesIgnoreTheWrappers(t *testing.T) {
	g := testNetwork(t)
	const phys = 1024 + storage.ChecksumTrailerLen
	cases := []struct {
		name string
		// open returns the store and, for a checked one, a function
		// that damages a page beneath the checksum.
		open func(t *testing.T) (storage.Store, func(storage.PageID))
	}{
		{"MemStore", func(t *testing.T) (storage.Store, func(storage.PageID)) {
			return storage.NewMemStore(1024), nil
		}},
		{"CheckedStore over FileStore", func(t *testing.T) (storage.Store, func(storage.PageID)) {
			fs, err := storage.CreateFileStore(filepath.Join(t.TempDir(), "pages"), phys)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { fs.Close() })
			cs, err := storage.NewCheckedStore(fs)
			if err != nil {
				t.Fatal(err)
			}
			return cs, func(pid storage.PageID) {
				raw := make([]byte, phys)
				if err := fs.ReadPage(pid, raw); err != nil {
					t.Fatal(err)
				}
				raw[100] ^= 0x04
				if err := fs.WritePage(pid, raw); err != nil {
					t.Fatal(err)
				}
			}
		}},
		{"CheckedStore over FaultStore", func(t *testing.T) (storage.Store, func(storage.PageID)) {
			fst := storage.NewFaultStore(storage.NewMemStore(phys), 3)
			cs, err := storage.NewCheckedStore(fst)
			if err != nil {
				t.Fatal(err)
			}
			return cs, func(pid storage.PageID) {
				fst.Inject(storage.Fault{Op: storage.FaultRead, Page: pid, Count: 1, Mode: storage.FaultBitFlip})
			}
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			st, corrupt := tc.open(t)
			reg := metrics.NewRegistry()
			f, err := Create(Options{PageSize: st.PageSize(), PoolPages: 4, Bounds: g.Bounds(),
				Store: st, Metrics: reg})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.BulkLoad(g, packGroups(t, g)); err != nil {
				t.Fatal(err)
			}
			if err := f.ResetIO(); err != nil {
				t.Fatal(err)
			}
			if n := reg.Histogram("ccam_storage_write_ns").Count(); n == 0 {
				t.Fatal("the load's writes were not timed")
			}
			reads := reg.Histogram("ccam_storage_read_ns")
			failures := reg.Counter("ccam_storage_checksum_failures_total")
			reads0 := reads.Count()
			for _, id := range g.NodeIDs() {
				if _, err := f.Find(id); err != nil {
					t.Fatal(err)
				}
			}
			misses := f.Pool().Stats().Misses
			if got := reads.Count() - reads0; misses == 0 || got != misses {
				t.Fatalf("read histogram counted %d reads, the pool %d misses", got, misses)
			}
			if n := failures.Value(); n != 0 {
				t.Fatalf("%d checksum failures on an undamaged store", n)
			}
			if corrupt == nil {
				return
			}
			if err := f.ResetIO(); err != nil {
				t.Fatal(err)
			}
			reads0 = reads.Count()
			victim := g.NodeIDs()[0]
			pid, err := f.PageOf(victim)
			if err != nil {
				t.Fatal(err)
			}
			corrupt(pid)
			if _, err := f.Find(victim); !errors.Is(err, storage.ErrChecksum) {
				t.Fatalf("Find on a damaged page = %v, want ErrChecksum", err)
			}
			if n := failures.Value(); n != 1 {
				t.Fatalf("one damaged read counted %d checksum failures, want 1", n)
			}
			if got, misses := reads.Count()-reads0, f.Pool().Stats().Misses; got != 1 || misses != 1 {
				t.Fatalf("the damaged read: %d histogram samples, %d misses, want 1 and 1", got, misses)
			}
			// A rebuild makes a new file over the same store and
			// registry; the counter is monotonic, so it keeps the count.
			if _, err := Create(Options{PageSize: st.PageSize(), PoolPages: 4, Bounds: g.Bounds(),
				Store: st, Metrics: reg}); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter("ccam_storage_checksum_failures_total").Value(); n != 1 {
				t.Fatalf("after a second file on the registry the counter reads %d, want 1", n)
			}
		})
	}
}

// TestFaultStoreSurfacesThroughFile re-runs the dying-device drill on
// the shared storage.FaultStore harness instead of the local
// failingStore: injected faults must surface as wrapped
// storage.ErrFaultInjected from every operation, and the store must
// count them.
func TestFaultStoreSurfacesThroughFile(t *testing.T) {
	g := testNetwork(t)
	for _, okOps := range []int{0, 1, 3, 10, 50} {
		t.Run(fmt.Sprintf("okOps=%d", okOps), func(t *testing.T) {
			fst := storage.NewFaultStore(storage.NewMemStore(1024), 7)
			f, err := Create(Options{PageSize: 1024, PoolPages: 4, Bounds: g.Bounds(), Store: fst})
			if err != nil {
				t.Fatal(err)
			}
			if err := f.BulkLoad(g, packGroups(t, g)); err != nil {
				t.Fatal(err)
			}
			if err := f.Pool().Reset(); err != nil {
				t.Fatal(err)
			}
			fst.FailAfter(storage.FaultRead, okOps)

			surfaced := false
			for _, id := range g.NodeIDs() {
				rec, err := f.Find(id)
				if err != nil {
					if !errors.Is(err, storage.ErrFaultInjected) {
						t.Fatalf("Find(%d) failed with foreign error: %v", id, err)
					}
					surfaced = true
					break
				}
				if rec.ID != id {
					t.Fatalf("Find(%d) returned %d under failure", id, rec.ID)
				}
			}
			if !surfaced {
				t.Fatal("injected fault never surfaced")
			}
			if fst.Injected() == 0 {
				t.Fatal("FaultStore counted no injections")
			}
		})
	}
}

// TestTornWriteDetectedAfterReload: a torn write during a mutation
// leaves a half-updated page; after caches drop, reading it back
// surfaces ErrChecksum instead of a half-old half-new record set.
func TestTornWriteDetectedAfterReload(t *testing.T) {
	g := testNetwork(t)
	ms := storage.NewMemStore(1024 + storage.ChecksumTrailerLen)
	fst := storage.NewFaultStore(ms, 2)
	cs, err := storage.NewCheckedStore(fst)
	if err != nil {
		t.Fatal(err)
	}
	f, err := Create(Options{PageSize: cs.PageSize(), PoolPages: 4, Bounds: g.Bounds(), Store: cs})
	if err != nil {
		t.Fatal(err)
	}
	if err := f.BulkLoad(g, packGroups(t, g)); err != nil {
		t.Fatal(err)
	}
	if err := f.Flush(); err != nil {
		t.Fatal(err)
	}

	// Every write from here on tears; Flush after a mutation must fail.
	fst.Inject(storage.Fault{Op: storage.FaultWrite, Page: storage.AnyPage,
		Mode: storage.FaultTornWrite})
	victim := g.NodeIDs()[0]
	_, delErr := f.DeleteRecord(victim)
	flushErr := f.Flush()
	if delErr == nil && flushErr == nil {
		t.Fatal("torn write never reported")
	}
	for _, err := range []error{delErr, flushErr} {
		if err != nil && !errors.Is(err, storage.ErrFaultInjected) {
			t.Fatalf("foreign error from torn write: %v", err)
		}
	}
	fst.Clear()

	// "Crash": abandon f (its buffer pool still holds the clean dirty
	// page, so it must NOT get a chance to re-flush) and reopen cold
	// from the store. The open scan reads every page and must trip the
	// checksum on the torn one, never serve plausible garbage.
	if _, err := OpenFromStoreOpts(cs, Options{PoolPages: 4}); !errors.Is(err, storage.ErrChecksum) {
		t.Fatalf("OpenFromStoreOpts over torn page = %v, want wrapped storage.ErrChecksum", err)
	}
}
