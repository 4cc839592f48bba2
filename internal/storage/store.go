// Package storage implements the paged storage substrate under every
// access method in this repository: fixed-size pages, a slotted-page
// layout for variable-length records, and two page stores — an
// in-memory simulated disk and an os.File-backed store for durable
// files. A store only moves bytes: the buffer pool above it is the one
// caller of its page operations once a file is open, and it counts and
// times every physical transfer (buffer.Pool.IO).
package storage

import (
	"errors"
	"fmt"
	"sort"
	"sync"
)

// PageID identifies a page within a store. Valid IDs start at 0.
type PageID uint32

// InvalidPageID is a sentinel for "no page".
const InvalidPageID = PageID(^uint32(0))

// Common storage errors.
var (
	ErrPageNotFound  = errors.New("storage: page not found")
	ErrPageFreed     = errors.New("storage: page was freed")
	ErrSizeMismatch  = errors.New("storage: buffer size does not match page size")
	ErrStoreClosed   = errors.New("storage: store is closed")
	ErrRecordTooBig  = errors.New("storage: record larger than page capacity")
	ErrPageFull      = errors.New("storage: page has insufficient free space")
	ErrSlotNotFound  = errors.New("storage: slot not found")
	ErrCorruptedPage = errors.New("storage: corrupted page")
	// ErrChecksum reports a page (or file header) whose stored CRC32
	// does not match its contents: a torn write, bit rot, or a
	// misdirected write. It is wrapped with page context by
	// CheckedStore and OpenFileStore and surfaced unchanged through
	// the buffer pool, netfile and the ccam facade, so callers can
	// errors.Is against it at any layer.
	ErrChecksum = errors.New("storage: page checksum mismatch")
	// ErrFaultInjected marks an error produced by a FaultStore rule
	// rather than a real device.
	ErrFaultInjected = errors.New("storage: injected fault")
)

// Stats counts physical page transfers. The paper's experiments report
// "number of data pages accessed": Reads+Writes between a buffer pool
// and its Store is that number. The pool counts them (buffer.Pool.IO);
// a store keeps no counts of its own.
type Stats struct {
	Reads  int64 // pages read from the store
	Writes int64 // pages written to the store
	Allocs int64 // pages allocated
	Frees  int64 // pages freed
}

// Total returns Reads + Writes.
func (s Stats) Total() int64 { return s.Reads + s.Writes }

// String renders the counters on one line.
func (s Stats) String() string {
	return fmt.Sprintf("reads=%d writes=%d allocs=%d frees=%d total=%d",
		s.Reads, s.Writes, s.Allocs, s.Frees, s.Total())
}

// Sub returns the change from an earlier snapshot.
func (s Stats) Sub(earlier Stats) Stats {
	return Stats{
		Reads:  s.Reads - earlier.Reads,
		Writes: s.Writes - earlier.Writes,
		Allocs: s.Allocs - earlier.Allocs,
		Frees:  s.Frees - earlier.Frees,
	}
}

// Store is a page-granular storage device. Implementations must be safe
// for concurrent use.
type Store interface {
	// PageSize returns the fixed page size in bytes.
	PageSize() int
	// Allocate reserves a new zeroed page and returns its ID.
	Allocate() (PageID, error)
	// ReadPage copies the page contents into buf, which must be exactly
	// PageSize bytes.
	ReadPage(id PageID, buf []byte) error
	// WritePage persists buf (exactly PageSize bytes) as the page
	// contents.
	WritePage(id PageID, buf []byte) error
	// WritePages persists a run of contiguous pages: run holds one or
	// more pages of exactly PageSize bytes each, and its i-th page
	// becomes the contents of page first+i. A file store writes the run
	// with one system call. On failure any prefix of the run may have
	// reached the device.
	WritePages(first PageID, run []byte) error
	// Free releases a page. Freed IDs may be recycled by Allocate.
	Free(id PageID) error
	// NumPages returns the number of live (allocated, unfreed) pages.
	// After Close it returns the count snapshotted at Close, never the
	// torn-down post-Close state.
	NumPages() int
	// PageIDs returns the ids of all live pages in ascending order.
	// After Close it returns the snapshot taken at Close.
	PageIDs() []PageID
	// Close releases resources. Further page operations fail with
	// ErrStoreClosed; NumPages and PageIDs keep answering from the
	// Close-time snapshot.
	Close() error
}

// MemStore is an in-memory Store that simulates a disk. It is the
// substrate for all experiments: the paper reports page-access counts,
// not wall-clock I/O, and the buffer pool over it counts every page
// transfer exactly.
//
// Concurrency: a reader-writer latch lets any number of ReadPage (and
// other non-mutating) calls run in parallel; Allocate, WritePage and
// Free are exclusive.
type MemStore struct {
	mu       sync.RWMutex
	pageSize int
	pages    map[PageID][]byte
	free     []PageID
	next     PageID
	closed   bool
	// closedIDs snapshots the live page ids at Close, so NumPages and
	// PageIDs keep answering afterwards (see the Store interface).
	closedIDs []PageID
}

// NewMemStore returns a MemStore with the given page size.
func NewMemStore(pageSize int) *MemStore {
	if pageSize <= 0 {
		panic(fmt.Sprintf("storage: invalid page size %d", pageSize))
	}
	return &MemStore{
		pageSize: pageSize,
		pages:    make(map[PageID][]byte),
	}
}

// PageSize implements Store.
func (m *MemStore) PageSize() int { return m.pageSize }

// Allocate implements Store.
func (m *MemStore) Allocate() (PageID, error) {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return InvalidPageID, ErrStoreClosed
	}
	var id PageID
	if n := len(m.free); n > 0 {
		id = m.free[n-1]
		m.free = m.free[:n-1]
	} else {
		id = m.next
		m.next++
	}
	m.pages[id] = make([]byte, m.pageSize)
	return id, nil
}

// ReadPage implements Store. It takes only the read latch, so any
// number of readers proceed in parallel; WritePage and Free exclude
// them.
func (m *MemStore) ReadPage(id PageID, buf []byte) error {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return ErrStoreClosed
	}
	if len(buf) != m.pageSize {
		return ErrSizeMismatch
	}
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
	}
	copy(buf, p)
	return nil
}

// WritePage implements Store.
func (m *MemStore) WritePage(id PageID, buf []byte) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if len(buf) != m.pageSize {
		return ErrSizeMismatch
	}
	p, ok := m.pages[id]
	if !ok {
		return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
	}
	copy(p, buf)
	return nil
}

// WritePages implements Store: one WritePage per page of the run.
func (m *MemStore) WritePages(first PageID, run []byte) error {
	return WritePagesEach(m, first, run)
}

// WritePagesEach writes a run of contiguous pages one WritePage at a
// time, stopping at the first error. It is WritePages for a store — or
// a wrapper that intercepts WritePage — with no cheaper way to write a
// run.
func WritePagesEach(st Store, first PageID, run []byte) error {
	ps := st.PageSize()
	n, err := runPages(run, ps)
	if err != nil {
		return err
	}
	for i := range n {
		if err := st.WritePage(first+PageID(i), run[i*ps:][:ps]); err != nil {
			return err
		}
	}
	return nil
}

// runPages returns the number of pages of size pageSize in run, which
// must be a non-empty whole number of them.
func runPages(run []byte, pageSize int) (int, error) {
	if len(run) == 0 || len(run)%pageSize != 0 {
		return 0, ErrSizeMismatch
	}
	return len(run) / pageSize, nil
}

// Free implements Store.
func (m *MemStore) Free(id PageID) error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return ErrStoreClosed
	}
	if _, ok := m.pages[id]; !ok {
		return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
	}
	delete(m.pages, id)
	m.free = append(m.free, id)
	return nil
}

// NumPages implements Store. After Close it returns the snapshot taken
// at Close.
func (m *MemStore) NumPages() int {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		return len(m.closedIDs)
	}
	return len(m.pages)
}

// PageIDs implements Store. After Close it returns the snapshot taken
// at Close.
func (m *MemStore) PageIDs() []PageID {
	m.mu.RLock()
	defer m.mu.RUnlock()
	if m.closed {
		out := make([]PageID, len(m.closedIDs))
		copy(out, m.closedIDs)
		return out
	}
	out := make([]PageID, 0, len(m.pages))
	for id := range m.pages {
		out = append(out, id)
	}
	sortIDs(out)
	return out
}

func sortIDs(s []PageID) {
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}

// Close implements Store. The live-page set is snapshotted first, so
// NumPages and PageIDs keep answering afterwards.
func (m *MemStore) Close() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	if m.closed {
		return nil
	}
	m.closedIDs = m.closedIDs[:0]
	for id := range m.pages {
		m.closedIDs = append(m.closedIDs, id)
	}
	sortIDs(m.closedIDs)
	m.closed = true
	m.pages = nil
	m.free = nil
	return nil
}
