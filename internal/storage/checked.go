package storage

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"sync"
)

// Checksum trailer layout, in the last ChecksumTrailerLen bytes of
// every physical page of a checked store:
//
//	[0:4) CRC32-C over the payload followed by the 4-byte page id
//	[4:8) trailer magic (distinguishes written pages from fresh zeros)
//
// Folding the page id into the CRC makes a misdirected write — a
// perfectly intact page image landing at the wrong offset — fail
// verification too.
const (
	// ChecksumTrailerLen is the per-page overhead of a CheckedStore:
	// the physical page is this much larger than the logical payload.
	ChecksumTrailerLen = 8

	checksumTrailerMagic uint32 = 0xC40C5EA1
)

// CheckedStore wraps a Store with per-page CRC32-C checksums. Every
// WritePage appends a checksum trailer; every ReadPage verifies it and
// fails with ErrChecksum (wrapped with the page id) on mismatch, so a
// torn write, a flipped bit or a misdirected write surfaces as a typed
// error instead of silently corrupt records. The logical page size is
// the inner store's minus ChecksumTrailerLen.
//
// A page that was allocated but never written reads back as all zeros
// (fresh pages carry no trailer); any other trailer-less image is
// reported as corrupt.
//
// CheckedStore is stateless apart from scratch buffers, so it is safe
// for concurrent use whenever the inner store is, and wrapping an
// existing file on open needs no recovery pass.
type CheckedStore struct {
	inner    Store
	pageSize int
	scratch  sync.Pool // one physical page
	runs     sync.Pool // *[]byte: WritePages' physical run
}

// NewCheckedStore wraps inner, whose page size must exceed the
// checksum trailer by at least 64 bytes of payload.
func NewCheckedStore(inner Store) (*CheckedStore, error) {
	ps := inner.PageSize() - ChecksumTrailerLen
	if ps < 56 {
		return nil, fmt.Errorf("storage: inner page size %d too small for checksummed pages", inner.PageSize())
	}
	c := &CheckedStore{inner: inner, pageSize: ps}
	c.scratch.New = func() any { return make([]byte, inner.PageSize()) }
	return c, nil
}

// CreateCheckedFileFlags creates (truncating) a checksummed page file
// at path. The on-disk page size is pageSize; the logical payload per
// page is pageSize-ChecksumTrailerLen. The header records
// FlagCheckedPages, ORed with extraFlags (e.g. FlagWAL for a
// write-ahead-logged file), so OpenPageFile re-wraps the store on open.
func CreateCheckedFileFlags(path string, pageSize int, extraFlags uint32) (*CheckedStore, *FileStore, error) {
	fs, err := createFileStore(path, pageSize, FlagCheckedPages|extraFlags)
	if err != nil {
		return nil, nil, err
	}
	cs, err := NewCheckedStore(fs)
	if err != nil {
		fs.Close()
		return nil, nil, err
	}
	return cs, fs, nil
}

// OpenPageFile opens a page file created by CreateFileStore or
// CreateCheckedFileFlags, consulting the header flags: a checked file comes
// back wrapped in a CheckedStore, a plain file as the bare FileStore.
// The returned Store is what callers should read and write through;
// the *FileStore gives access to Sync and Close (closing either closes
// the file once).
func OpenPageFile(path string) (Store, *FileStore, error) {
	fs, err := OpenFileStore(path)
	if err != nil {
		return nil, nil, err
	}
	if fs.Flags()&FlagCheckedPages == 0 {
		return fs, fs, nil
	}
	cs, err := NewCheckedStore(fs)
	if err != nil {
		fs.Close()
		return nil, nil, err
	}
	return cs, fs, nil
}

// Inner returns the wrapped store.
func (c *CheckedStore) Inner() Store { return c.inner }

// PageSize implements Store: the logical payload size per page.
func (c *CheckedStore) PageSize() int { return c.pageSize }

// pageCRC computes the trailer checksum of a payload destined for page
// id.
func pageCRC(payload []byte, id PageID) uint32 {
	var idb [4]byte
	binary.LittleEndian.PutUint32(idb[:], uint32(id))
	crc := crc32.Checksum(payload, fsCRCTable)
	return crc32.Update(crc, fsCRCTable, idb[:])
}

// Allocate implements Store.
func (c *CheckedStore) Allocate() (PageID, error) { return c.inner.Allocate() }

// ReadPage implements Store: a physical read followed by checksum
// verification. Mismatches return ErrChecksum wrapped with the page
// id.
func (c *CheckedStore) ReadPage(id PageID, buf []byte) error {
	if len(buf) != c.pageSize {
		return ErrSizeMismatch
	}
	raw := c.scratch.Get().([]byte)
	defer c.scratch.Put(raw)
	if err := c.inner.ReadPage(id, raw); err != nil {
		return err
	}
	trailer := raw[c.pageSize:]
	if binary.LittleEndian.Uint32(trailer[4:8]) != checksumTrailerMagic {
		// No trailer: legitimate only for a never-written page, which
		// the stores hand out zeroed.
		for _, b := range raw {
			if b != 0 {
				return fmt.Errorf("%w: page %d has no checksum trailer", ErrChecksum, id)
			}
		}
		copy(buf, raw[:c.pageSize])
		return nil
	}
	want := binary.LittleEndian.Uint32(trailer[0:4])
	if got := pageCRC(raw[:c.pageSize], id); got != want {
		return fmt.Errorf("%w: page %d (stored %#x, computed %#x)", ErrChecksum, id, want, got)
	}
	copy(buf, raw[:c.pageSize])
	return nil
}

// WritePage implements Store: the payload is written with its checksum
// trailer in one physical page write.
func (c *CheckedStore) WritePage(id PageID, buf []byte) error {
	if len(buf) != c.pageSize {
		return ErrSizeMismatch
	}
	raw := c.scratch.Get().([]byte)
	defer c.scratch.Put(raw)
	c.stamp(raw, buf, id)
	return c.inner.WritePage(id, raw)
}

// WritePages implements Store: every page of the run is stamped with
// its own trailer into one physical run, which goes to the inner store
// as one run.
func (c *CheckedStore) WritePages(first PageID, run []byte) error {
	n, err := runPages(run, c.pageSize)
	if err != nil {
		return err
	}
	phys := c.inner.PageSize()
	rawp, _ := c.runs.Get().(*[]byte)
	if rawp == nil {
		rawp = new([]byte)
	}
	defer c.runs.Put(rawp)
	if cap(*rawp) < n*phys {
		*rawp = make([]byte, n*phys)
	}
	raw := (*rawp)[:n*phys]
	for i := range n {
		c.stamp(raw[i*phys:][:phys], run[i*c.pageSize:][:c.pageSize], first+PageID(i))
	}
	return c.inner.WritePages(first, raw)
}

// stamp fills the physical image raw with the payload buf and the
// trailer of page id.
func (c *CheckedStore) stamp(raw, buf []byte, id PageID) {
	copy(raw, buf)
	trailer := raw[c.pageSize:]
	binary.LittleEndian.PutUint32(trailer[0:4], pageCRC(raw[:c.pageSize], id))
	binary.LittleEndian.PutUint32(trailer[4:8], checksumTrailerMagic)
}

// Free implements Store.
func (c *CheckedStore) Free(id PageID) error { return c.inner.Free(id) }

// NumPages implements Store.
func (c *CheckedStore) NumPages() int { return c.inner.NumPages() }

// PageIDs implements Store.
func (c *CheckedStore) PageIDs() []PageID { return c.inner.PageIDs() }

// Close implements Store.
func (c *CheckedStore) Close() error { return c.inner.Close() }

var _ Store = (*CheckedStore)(nil)
