package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sync"
)

// FileStore is an os.File-backed Store. Page 0 of the file is a
// metadata page holding a checksummed header (page size, allocation
// high-water mark, free-list head, flags, and a monotonic generation);
// user pages start at file offset pageSize. Freed pages are chained
// through their first 8 bytes — a marker word plus the id of the next
// free page — so the free list never outgrows the header no matter how
// many pages are freed.
//
// Crash safety: the header is rewritten eagerly on every allocator
// mutation (Allocate, Free), ordered so that a crash at any point
// leaves the file structurally consistent — at worst one page is live
// with stale contents, which the checksum layer or ccam-fsck flags.
// Because the header carries a CRC32 over its fields, a torn header
// write is detected (not silently misread) by OpenFileStore. Sync
// forces everything to stable storage; between Syncs the usual
// os-buffering caveats apply.
//
// FileStore exists so CCAM files can be durable; the experiments use
// MemStore, and both implementations pass the same conformance tests.
//
// Concurrency: ReadPage takes only the read latch (os.File.ReadAt is
// safe for parallel callers); Allocate, WritePage, WritePages and Free
// are exclusive.
type FileStore struct {
	mu       sync.RWMutex
	f        *os.File
	path     string
	pageSize int
	next     PageID
	freeHead PageID
	// freeNext caches the on-disk free chain (freed page -> next free
	// page) so Allocate never reads the device to pop the list. Its keys
	// are the free pages: a page is live when it is below next and not
	// among them (see isLive).
	freeNext map[PageID]PageID
	nfree    int
	flags    uint32
	gen      uint64
	// appliedLSN records the WAL checkpoint the data file reflects
	// (zero for non-WAL files); advisory for fsck and diagnostics.
	appliedLSN uint64
	closed     bool
	// closedIDs snapshots the live page ids at Close, so NumPages and
	// PageIDs keep answering afterwards (the same snapshot semantics
	// the Store interface documents).
	closedIDs []PageID
}

// fileHeader layout within the metadata page (fsHeaderLen bytes):
//
//	[0:8)   magic
//	[8:12)  page size
//	[12:16) next page id (allocation high-water mark)
//	[16:20) number of free pages
//	[20:24) free-list head page id (InvalidPageID when empty)
//	[24:28) flags (FlagCheckedPages: pages carry checksum trailers)
//	[28:36) generation (monotonic, bumped on every header write)
//	[36:44) applied LSN (last WAL checkpoint reflected in the data;
//	        zero for non-WAL files)
//	[44:48) CRC32-C over bytes [0:44)
//
// Freed pages begin with an 8-byte chain entry:
//
//	[0:4) freedMagic
//	[4:8) next free page id (InvalidPageID terminates the chain)
const (
	fsMagic     uint64 = 0xCCA4F11E00000003
	fsHeaderLen        = 48
	freedMagic  uint32 = 0xFEEEB10C
)

// File-format flags recorded in the header.
const (
	// FlagCheckedPages marks a file whose pages carry CRC32 trailers
	// written by CheckedStore; OpenPageFile uses it to re-wrap the
	// store on open.
	FlagCheckedPages uint32 = 1 << 0
	// FlagWAL marks a file whose mutations are logged to a sibling
	// write-ahead log directory (see WALDir); OpenPath replays it on
	// open.
	FlagWAL uint32 = 1 << 1
)

var fsCRCTable = crc32.MakeTable(crc32.Castagnoli)

// CreateFileStore creates (truncating) a page file at path.
func CreateFileStore(path string, pageSize int) (*FileStore, error) {
	return createFileStore(path, pageSize, 0)
}

func createFileStore(path string, pageSize int, flags uint32) (*FileStore, error) {
	if pageSize < 64 {
		return nil, fmt.Errorf("storage: page size %d too small for file store", pageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: create file store: %w", err)
	}
	fs := &FileStore{
		f:        f,
		path:     path,
		pageSize: pageSize,
		freeHead: InvalidPageID,
		freeNext: make(map[PageID]PageID),
		flags:    flags,
	}
	// Zero-fill the whole metadata page once, then lay the header in.
	if _, err := f.WriteAt(make([]byte, pageSize), 0); err != nil {
		f.Close()
		return nil, fmt.Errorf("storage: init metadata page: %w", err)
	}
	if err := fs.writeHeader(); err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// OpenFileStore opens an existing page file created by CreateFileStore.
// A header whose checksum does not match (e.g. a torn write) is
// reported as ErrChecksum; a broken free-page chain as
// ErrCorruptedPage. Both are repairable with ccam-fsck -repair.
func OpenFileStore(path string) (*FileStore, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: open file store: %w", err)
	}
	fs, err := loadFileStore(f, path)
	if err != nil {
		f.Close()
		return nil, err
	}
	return fs, nil
}

// loadFileStore parses the header and walks the free chain of an open
// page file.
func loadFileStore(f *os.File, path string) (*FileStore, error) {
	var hdr [fsHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return nil, fmt.Errorf("storage: read file store header: %w", err)
	}
	ph, err := parseHeader(hdr[:])
	if err != nil {
		return nil, fmt.Errorf("storage: %s: %w", path, err)
	}
	fs := &FileStore{
		f:        f,
		path:     path,
		pageSize: ph.pageSize,
		next:     ph.next,
		freeHead: ph.freeHead,
		freeNext: make(map[PageID]PageID, ph.nfree),
		flags:    ph.flags,
		gen:      ph.gen,
		nfree:    ph.nfree,

		appliedLSN: ph.appliedLSN,
	}
	// Walk the free chain: exactly nfree entries, each inside the
	// allocated range, no cycles, terminated by InvalidPageID.
	cur := fs.freeHead
	for i := 0; i < ph.nfree; i++ {
		_, seen := fs.freeNext[cur]
		if cur == InvalidPageID || cur >= fs.next || seen {
			return nil, fmt.Errorf("storage: %s: free list broken at entry %d (page %d): %w",
				path, i, cur, ErrCorruptedPage)
		}
		var entry [8]byte
		if _, err := f.ReadAt(entry[:], fs.offset(cur)); err != nil {
			return nil, fmt.Errorf("storage: read free chain entry of page %d: %w", cur, err)
		}
		marker, next, ok := parseFreedEntry(entry[:])
		if !ok {
			return nil, fmt.Errorf("storage: %s: page %d on free list lacks freed marker (%#x): %w",
				path, cur, marker, ErrCorruptedPage)
		}
		fs.freeNext[cur] = next
		cur = next
	}
	if cur != InvalidPageID {
		return nil, fmt.Errorf("storage: %s: free list longer than header count %d: %w",
			path, ph.nfree, ErrCorruptedPage)
	}
	return fs, nil
}

// parsedHeader is the decoded file header.
type parsedHeader struct {
	pageSize   int
	next       PageID
	nfree      int
	freeHead   PageID
	flags      uint32
	gen        uint64
	appliedLSN uint64
}

// encodeHeader lays out a checksummed header image.
func encodeHeader(ph parsedHeader) []byte {
	buf := make([]byte, fsHeaderLen)
	binary.LittleEndian.PutUint64(buf[0:8], fsMagic)
	binary.LittleEndian.PutUint32(buf[8:12], uint32(ph.pageSize))
	binary.LittleEndian.PutUint32(buf[12:16], uint32(ph.next))
	binary.LittleEndian.PutUint32(buf[16:20], uint32(ph.nfree))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(ph.freeHead))
	binary.LittleEndian.PutUint32(buf[24:28], ph.flags)
	binary.LittleEndian.PutUint64(buf[28:36], ph.gen)
	binary.LittleEndian.PutUint64(buf[36:44], ph.appliedLSN)
	binary.LittleEndian.PutUint32(buf[44:48], crc32.Checksum(buf[0:44], fsCRCTable))
	return buf
}

// parseHeader decodes and validates a raw header image. Errors wrap
// ErrChecksum (torn/corrupted header) or are plain format errors.
func parseHeader(hdr []byte) (parsedHeader, error) {
	var ph parsedHeader
	if len(hdr) < fsHeaderLen {
		return ph, fmt.Errorf("header too short (%d bytes)", len(hdr))
	}
	if binary.LittleEndian.Uint64(hdr[0:8]) != fsMagic {
		return ph, fmt.Errorf("not a page file (or unsupported version)")
	}
	// Decode the fields before the CRC check: on a torn header the
	// caller (fsck) still gets the best-effort geometry alongside the
	// ErrChecksum, which is what makes the header repairable.
	ph.pageSize = int(binary.LittleEndian.Uint32(hdr[8:12]))
	ph.next = PageID(binary.LittleEndian.Uint32(hdr[12:16]))
	ph.nfree = int(binary.LittleEndian.Uint32(hdr[16:20]))
	ph.freeHead = PageID(binary.LittleEndian.Uint32(hdr[20:24]))
	ph.flags = binary.LittleEndian.Uint32(hdr[24:28])
	ph.gen = binary.LittleEndian.Uint64(hdr[28:36])
	ph.appliedLSN = binary.LittleEndian.Uint64(hdr[36:44])
	want := binary.LittleEndian.Uint32(hdr[44:48])
	if got := crc32.Checksum(hdr[0:44], fsCRCTable); got != want {
		return ph, fmt.Errorf("header checksum mismatch (got %#x, want %#x): %w", got, want, ErrChecksum)
	}
	if ph.pageSize < 64 {
		return ph, fmt.Errorf("implausible page size %d", ph.pageSize)
	}
	if ph.nfree > int(ph.next) {
		return ph, fmt.Errorf("free count %d exceeds allocated pages %d: %w", ph.nfree, ph.next, ErrCorruptedPage)
	}
	return ph, nil
}

// parseFreedEntry decodes a freed page's 8-byte chain entry.
func parseFreedEntry(b []byte) (marker uint32, next PageID, ok bool) {
	marker = binary.LittleEndian.Uint32(b[0:4])
	next = PageID(binary.LittleEndian.Uint32(b[4:8]))
	return marker, next, marker == freedMagic
}

// writeHeader bumps the generation and rewrites the checksummed header
// in place. Caller holds the exclusive latch.
func (fs *FileStore) writeHeader() error {
	fs.gen++
	buf := encodeHeader(parsedHeader{
		pageSize:   fs.pageSize,
		next:       fs.next,
		nfree:      fs.nfree,
		freeHead:   fs.freeHead,
		flags:      fs.flags,
		gen:        fs.gen,
		appliedLSN: fs.appliedLSN,
	})
	if _, err := fs.f.WriteAt(buf, 0); err != nil {
		return fmt.Errorf("storage: write file store header: %w", err)
	}
	return nil
}

func (fs *FileStore) offset(id PageID) int64 {
	return int64(fs.pageSize) * (int64(id) + 1) // +1 skips metadata page
}

// PageSize implements Store.
func (fs *FileStore) PageSize() int { return fs.pageSize }

// Flags returns the file-format flags recorded in the header.
func (fs *FileStore) Flags() uint32 { return fs.flags }

// Generation returns the header generation: it increases on every
// allocator mutation and Sync, so it orders file versions.
func (fs *FileStore) Generation() uint64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.gen
}

// Path returns the file path backing the store.
func (fs *FileStore) Path() string { return fs.path }

// AppliedLSN returns the WAL checkpoint LSN the data file reflects
// (zero for non-WAL files).
func (fs *FileStore) AppliedLSN() uint64 {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	return fs.appliedLSN
}

// SetAppliedLSN stamps the header with the WAL checkpoint LSN just
// flushed into the data file, and forces everything — the stamped
// header and all page writes before it — to stable storage.
func (fs *FileStore) SetAppliedLSN(lsn uint64) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	fs.appliedLSN = lsn
	if err := fs.writeHeader(); err != nil {
		return err
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync applied lsn: %w", err)
	}
	return nil
}

// SetFlag ORs a file-format flag into the header and rewrites it.
func (fs *FileStore) SetFlag(flag uint32) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	fs.flags |= flag
	return fs.writeHeader()
}

// AllocSnapshot captures the allocator state for a WAL checkpoint: the
// high-water mark, the free chain in head-first order, and the header
// fields recovery needs to rebuild the file raw.
func (fs *FileStore) AllocSnapshot() (next PageID, chain []PageID, gen uint64, flags uint32, physPageSize int) {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	chain = make([]PageID, 0, fs.nfree)
	for cur := fs.freeHead; cur != InvalidPageID && len(chain) < fs.nfree; {
		chain = append(chain, cur)
		cur = fs.freeNext[cur]
	}
	return fs.next, chain, fs.gen, fs.flags, fs.pageSize
}

// Allocate implements Store. Freed pages are recycled in LIFO order.
// The header is updated (and the recycled page zeroed) before the id
// is returned, so a crash mid-allocation never corrupts the free
// chain: at worst the page is recorded live with stale bytes, which
// the checksum layer detects.
func (fs *FileStore) Allocate() (PageID, error) {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return InvalidPageID, ErrStoreClosed
	}
	var id PageID
	if fs.freeHead != InvalidPageID {
		id = fs.freeHead
		next, ok := fs.freeNext[id]
		if !ok {
			return InvalidPageID, fmt.Errorf("storage: free chain cache missing page %d: %w", id, ErrCorruptedPage)
		}
		fs.freeHead = next
		delete(fs.freeNext, id)
		fs.nfree--
	} else {
		id = fs.next
		fs.next++
	}
	// Header first: once it no longer lists the page as free, the
	// chain stays walkable even if the zeroing write below is lost.
	if err := fs.writeHeader(); err != nil {
		return InvalidPageID, err
	}
	zero := make([]byte, fs.pageSize)
	if _, err := fs.f.WriteAt(zero, fs.offset(id)); err != nil {
		return InvalidPageID, fmt.Errorf("storage: allocate page %d: %w", id, err)
	}
	return id, nil
}

// isLive reports whether page id is allocated and not freed: below the
// high-water mark and off the free list. With no page free it probes
// no map. Caller holds the latch.
func (fs *FileStore) isLive(id PageID) bool {
	if id >= fs.next {
		return false
	}
	if fs.nfree == 0 {
		return true
	}
	_, freed := fs.freeNext[id]
	return !freed
}

// liveIDs returns the live page ids in ascending order. Caller holds
// the latch.
func (fs *FileStore) liveIDs() []PageID {
	out := make([]PageID, 0, int(fs.next)-fs.nfree)
	for id := PageID(0); id < fs.next; id++ {
		if fs.isLive(id) {
			out = append(out, id)
		}
	}
	return out
}

// ReadPage implements Store. It takes only the read latch: ReadAt is a
// positioned read, safe under concurrent callers.
func (fs *FileStore) ReadPage(id PageID, buf []byte) error {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if len(buf) != fs.pageSize {
		return ErrSizeMismatch
	}
	if !fs.isLive(id) {
		return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
	}
	if _, err := fs.f.ReadAt(buf, fs.offset(id)); err != nil {
		return fmt.Errorf("storage: read page %d: %w", id, err)
	}
	return nil
}

// WritePage implements Store.
func (fs *FileStore) WritePage(id PageID, buf []byte) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if len(buf) != fs.pageSize {
		return ErrSizeMismatch
	}
	if !fs.isLive(id) {
		return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
	}
	if _, err := fs.f.WriteAt(buf, fs.offset(id)); err != nil {
		return fmt.Errorf("storage: write page %d: %w", id, err)
	}
	return nil
}

// WritePages implements Store: the run is one positioned write.
func (fs *FileStore) WritePages(first PageID, run []byte) error {
	n, err := runPages(run, fs.pageSize)
	if err != nil {
		return err
	}
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	for id := first; id < first+PageID(n); id++ {
		if !fs.isLive(id) {
			return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
		}
	}
	if _, err := fs.f.WriteAt(run, fs.offset(first)); err != nil {
		return fmt.Errorf("storage: write pages %d..%d: %w", first, first+PageID(n-1), err)
	}
	return nil
}

// Free implements Store. The page is chained onto the durable free
// list: its first 8 bytes on disk become the chain entry, then the
// header is updated to point at it. A crash between the two writes
// leaves the page live with a marker prefix — structurally consistent,
// flagged by the checksum layer or ccam-fsck.
func (fs *FileStore) Free(id PageID) error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if !fs.isLive(id) {
		return fmt.Errorf("%w: page %d", ErrPageNotFound, id)
	}
	var entry [8]byte
	binary.LittleEndian.PutUint32(entry[0:4], freedMagic)
	binary.LittleEndian.PutUint32(entry[4:8], uint32(fs.freeHead))
	if _, err := fs.f.WriteAt(entry[:], fs.offset(id)); err != nil {
		return fmt.Errorf("storage: chain freed page %d: %w", id, err)
	}
	fs.freeNext[id] = fs.freeHead
	fs.freeHead = id
	fs.nfree++
	return fs.writeHeader()
}

// NumPages implements Store. After Close it returns the snapshot taken
// at Close.
func (fs *FileStore) NumPages() int {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		return len(fs.closedIDs)
	}
	return int(fs.next) - fs.nfree
}

// PageIDs implements Store. After Close it returns the snapshot taken
// at Close.
func (fs *FileStore) PageIDs() []PageID {
	fs.mu.RLock()
	defer fs.mu.RUnlock()
	if fs.closed {
		out := make([]PageID, len(fs.closedIDs))
		copy(out, fs.closedIDs)
		return out
	}
	return fs.liveIDs()
}

// Sync flushes the header and file contents to stable storage.
func (fs *FileStore) Sync() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return ErrStoreClosed
	}
	if err := fs.writeHeader(); err != nil {
		return err
	}
	if err := fs.f.Sync(); err != nil {
		return fmt.Errorf("storage: sync: %w", err)
	}
	return nil
}

// Close implements Store. The header is flushed before closing, and
// the live-page set is snapshotted so NumPages and PageIDs keep
// answering afterwards.
func (fs *FileStore) Close() error {
	fs.mu.Lock()
	defer fs.mu.Unlock()
	if fs.closed {
		return nil
	}
	fs.closedIDs = fs.liveIDs()
	fs.closed = true
	if err := fs.writeHeader(); err != nil {
		fs.f.Close()
		return err
	}
	if err := fs.f.Close(); err != nil {
		return fmt.Errorf("storage: close: %w", err)
	}
	return nil
}
