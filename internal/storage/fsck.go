package storage

import (
	"encoding/binary"
	"fmt"
	"os"
	"sort"
)

// This file implements the verification and repair engine behind
// cmd/ccam-fsck. It deliberately reads the file with raw positioned
// I/O instead of OpenFileStore, so a file too damaged to open (torn
// header, broken free chain) can still be inspected page by page and
// repaired.

// PageDamage describes one damaged page.
type PageDamage struct {
	ID  PageID
	Err error
}

func (d PageDamage) String() string { return fmt.Sprintf("page %d: %v", d.ID, d.Err) }

// FsckReport is the result of CheckFile or RepairFile.
type FsckReport struct {
	Path     string
	PageSize int
	// Checked reports whether pages carry checksum trailers
	// (FlagCheckedPages).
	Checked    bool
	Generation uint64
	// AppliedLSN is the WAL checkpoint the data file reflects (zero
	// for non-WAL files).
	AppliedLSN uint64
	// WAL reports whether the header carries FlagWAL (mutations are
	// logged to a sibling WAL directory).
	WAL bool
	// NextPage is the allocation high-water mark from the header.
	NextPage PageID
	// HeaderErr is non-nil when the header is damaged (torn write,
	// checksum mismatch, implausible fields).
	HeaderErr error
	// FreeListErr is non-nil when the free-page chain is broken.
	FreeListErr error
	// FreePages lists the pages on the (walkable prefix of the) free
	// chain.
	FreePages []PageID
	// LivePages counts pages that are allocated, not free and intact.
	LivePages int
	// Damaged lists live pages that failed verification: checksum
	// mismatch, missing trailer, or slotted-page invariant violation.
	Damaged []PageDamage
	// Restored lists live pages that failed verification but hold an
	// image in the WAL's last complete checkpoint: a reopen rewrites
	// them from it (RecoverFile), so they are not damage. A checkpoint
	// flush torn mid-page leaves one.
	Restored []PageDamage
	// Repaired lists the actions RepairFile took (empty for
	// CheckFile).
	Repaired []string
}

// OK reports whether the file verified clean.
func (r *FsckReport) OK() bool {
	return r.HeaderErr == nil && r.FreeListErr == nil && len(r.Damaged) == 0
}

// CheckFile verifies a page file: header magic and checksum, free-page
// chain, per-page checksums (when the file is checked) and
// slotted-page invariants. It never modifies the file. The returned
// error is non-nil only for environmental failures (file unreadable);
// verification findings live in the report.
func CheckFile(path string) (*FsckReport, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("storage: fsck open: %w", err)
	}
	defer f.Close()
	return checkFile(f, path)
}

func checkFile(f *os.File, path string) (*FsckReport, error) {
	rep := &FsckReport{Path: path}
	st, err := f.Stat()
	if err != nil {
		return nil, fmt.Errorf("storage: fsck stat: %w", err)
	}

	var hdr [fsHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		rep.HeaderErr = fmt.Errorf("header unreadable: %w", err)
		return rep, nil
	}
	ph, perr := parseHeader(hdr[:])
	if perr != nil {
		rep.HeaderErr = perr
		// Without magic + page size nothing else is addressable.
		if binary.LittleEndian.Uint64(hdr[0:8]) != fsMagic || ph.pageSize < 64 {
			return rep, nil
		}
		// Torn header with intact leading fields: report it, then keep
		// verifying pages with the parsed (best-effort) geometry so
		// the damage summary is complete.
	}
	rep.PageSize = ph.pageSize
	rep.Checked = ph.flags&FlagCheckedPages != 0
	rep.WAL = ph.flags&FlagWAL != 0
	rep.Generation = ph.gen
	rep.AppliedLSN = ph.appliedLSN
	rep.NextPage = ph.next

	// The high-water mark must fit the file: pages may be unwritten at
	// the tail (sparse allocation), but a next far past EOF means the
	// header and data disagree.
	maxPages := PageID(0)
	if st.Size() > int64(ph.pageSize) {
		maxPages = PageID((st.Size() - 1) / int64(ph.pageSize)) // excludes metadata page, rounds up
	}
	if ph.next > maxPages && rep.HeaderErr == nil {
		rep.HeaderErr = fmt.Errorf("header claims %d pages but file holds at most %d: %w",
			ph.next, maxPages, ErrCorruptedPage)
	}
	scanTo := ph.next
	if scanTo > maxPages {
		scanTo = maxPages
	}

	// Walk the free chain, tolerating damage: the walkable prefix
	// still tells us which pages to skip below.
	free := make(map[PageID]bool, ph.nfree)
	offset := func(id PageID) int64 { return int64(ph.pageSize) * (int64(id) + 1) }
	cur := ph.freeHead
	for i := 0; i < ph.nfree; i++ {
		if cur == InvalidPageID || cur >= ph.next || free[cur] {
			rep.FreeListErr = fmt.Errorf("chain broken at entry %d (page %d): %w", i, cur, ErrCorruptedPage)
			break
		}
		var entry [8]byte
		if _, err := f.ReadAt(entry[:], offset(cur)); err != nil {
			rep.FreeListErr = fmt.Errorf("chain entry %d (page %d) unreadable: %w", i, cur, err)
			break
		}
		marker, next, ok := parseFreedEntry(entry[:])
		if !ok {
			rep.FreeListErr = fmt.Errorf("page %d on free chain lacks freed marker (found %#x): %w",
				cur, marker, ErrCorruptedPage)
			break
		}
		free[cur] = true
		rep.FreePages = append(rep.FreePages, cur)
		cur = next
	}
	if rep.FreeListErr == nil && cur != InvalidPageID {
		rep.FreeListErr = fmt.Errorf("chain longer than header count %d: %w", ph.nfree, ErrCorruptedPage)
	}

	// Verify every live page.
	raw := make([]byte, ph.pageSize)
	for id := PageID(0); id < scanTo; id++ {
		if free[id] {
			continue
		}
		if err := verifyPage(f, raw, id, offset(id), rep.Checked); err != nil {
			rep.Damaged = append(rep.Damaged, PageDamage{ID: id, Err: err})
			continue
		}
		rep.LivePages++
	}
	if rep.WAL && len(rep.Damaged) > 0 {
		imaged := checkpointImages(WALDir(path), rep.PageSize)
		damaged := rep.Damaged[:0]
		for _, d := range rep.Damaged {
			if imaged[d.ID] {
				rep.Restored = append(rep.Restored, d)
			} else {
				damaged = append(damaged, d)
			}
		}
		rep.Damaged = damaged
	}
	return rep, nil
}

// checkpointImages returns the pages the last complete checkpoint in
// the log directory dir holds an image of, for a data file of physical
// page size pageSize: the pages a reopen rewrites before it replays the
// log. It is empty when the log cannot be read or its checkpoint does
// not fit the file; the pages then stay damaged.
func checkpointImages(dir string, pageSize int) map[PageID]bool {
	recs, _, err := ScanWALDir(dir)
	if err != nil {
		return nil
	}
	ck, err := LastCheckpoint(recs)
	if err != nil || ck == nil || ck.PhysPageSize != pageSize {
		return nil
	}
	imaged := make(map[PageID]bool, len(ck.Images))
	for _, img := range ck.Images {
		imaged[img.ID] = true
	}
	return imaged
}

// verifyPage checks one live page image: checksum trailer (when the
// file is checked) and slotted-page invariants.
func verifyPage(f *os.File, raw []byte, id PageID, off int64, checked bool) error {
	if _, err := f.ReadAt(raw, off); err != nil {
		return fmt.Errorf("unreadable: %w", err)
	}
	payload := raw
	if checked {
		ps := len(raw) - ChecksumTrailerLen
		payload = raw[:ps]
		trailer := raw[ps:]
		if binary.LittleEndian.Uint32(trailer[4:8]) != checksumTrailerMagic {
			if !allZero(raw) {
				return fmt.Errorf("%w: no checksum trailer on a non-empty page", ErrChecksum)
			}
			return nil // never-written page
		}
		want := binary.LittleEndian.Uint32(trailer[0:4])
		if got := pageCRC(payload, id); got != want {
			return fmt.Errorf("%w (stored %#x, computed %#x)", ErrChecksum, want, got)
		}
	} else if allZero(raw) {
		return nil // never-written page
	}
	return (&SlottedPage{buf: payload}).Validate()
}

func allZero(b []byte) bool {
	for _, v := range b {
		if v != 0 {
			return false
		}
	}
	return true
}

// RepairFile verifies the file like CheckFile, then repairs what it
// can in place:
//
//   - A damaged header (torn write / bad checksum / impossible counts)
//     is rebuilt from the file itself, provided magic and page size
//     survive: the high-water mark is clamped to the file length and
//     the free chain is reconstructed from pages carrying the freed
//     marker.
//   - Damaged pages are quarantined: chained onto the free list so the
//     file opens cleanly (and OpenPath degrades to the surviving
//     records) instead of failing outright. Their record contents are
//     lost — that is what the quarantine records.
//
// The returned report reflects a re-verification after repair; its
// Repaired field lists the actions taken.
func RepairFile(path string) (*FsckReport, error) {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("storage: fsck open for repair: %w", err)
	}
	defer f.Close()

	rep, err := checkFile(f, path)
	if err != nil {
		return nil, err
	}
	if rep.OK() {
		return rep, nil
	}
	if rep.PageSize < 64 {
		return rep, fmt.Errorf("storage: fsck: header magic or page size destroyed; cannot repair %s", path)
	}
	var actions []string

	ph := parsedHeader{
		pageSize:   rep.PageSize,
		next:       rep.NextPage,
		freeHead:   InvalidPageID,
		gen:        rep.Generation + 1,
		appliedLSN: rep.AppliedLSN,
	}
	if rep.Checked {
		ph.flags |= FlagCheckedPages
	}
	if rep.WAL {
		ph.flags |= FlagWAL
	}

	// Clamp the high-water mark to what the file can hold.
	st, err := f.Stat()
	if err != nil {
		return rep, fmt.Errorf("storage: fsck stat: %w", err)
	}
	maxPages := PageID(0)
	if st.Size() > int64(ph.pageSize) {
		maxPages = PageID((st.Size() - 1) / int64(ph.pageSize))
	}
	if ph.next > maxPages {
		actions = append(actions, fmt.Sprintf("clamped page count %d -> %d", ph.next, maxPages))
		ph.next = maxPages
	}

	// Rebuild the free set: pages already on the walkable chain, pages
	// carrying a freed marker (orphans of a crashed Free), and every
	// damaged page (the quarantine).
	freeSet := make(map[PageID]bool, len(rep.FreePages)+len(rep.Damaged))
	for _, id := range rep.FreePages {
		if id < ph.next {
			freeSet[id] = true
		}
	}
	offset := func(id PageID) int64 { return int64(ph.pageSize) * (int64(id) + 1) }
	if rep.HeaderErr != nil || rep.FreeListErr != nil {
		var entry [8]byte
		for id := PageID(0); id < ph.next; id++ {
			if freeSet[id] {
				continue
			}
			if _, err := f.ReadAt(entry[:], offset(id)); err != nil {
				continue
			}
			if _, _, ok := parseFreedEntry(entry[:]); ok {
				freeSet[id] = true
				actions = append(actions, fmt.Sprintf("recovered freed page %d from its marker", id))
			}
		}
	}
	for _, d := range rep.Damaged {
		if d.ID >= ph.next || freeSet[d.ID] {
			continue
		}
		freeSet[d.ID] = true
		actions = append(actions, fmt.Sprintf("quarantined page %d (%v)", d.ID, d.Err))
	}

	// Write the chain entries (ascending, each pointing at the next),
	// then the rebuilt header — the same crash-ordering the store
	// itself uses.
	ids := make([]PageID, 0, len(freeSet))
	for id := range freeSet {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	var entry [8]byte
	for i, id := range ids {
		next := InvalidPageID
		if i+1 < len(ids) {
			next = ids[i+1]
		}
		binary.LittleEndian.PutUint32(entry[0:4], freedMagic)
		binary.LittleEndian.PutUint32(entry[4:8], uint32(next))
		if _, err := f.WriteAt(entry[:], offset(id)); err != nil {
			return rep, fmt.Errorf("storage: fsck: chain page %d: %w", id, err)
		}
	}
	ph.nfree = len(ids)
	if len(ids) > 0 {
		ph.freeHead = ids[0]
	}
	hdr := encodeHeader(ph)
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return rep, fmt.Errorf("storage: fsck: rewrite header: %w", err)
	}
	if rep.HeaderErr != nil {
		actions = append(actions, "rebuilt header")
	}
	if err := f.Sync(); err != nil {
		return rep, fmt.Errorf("storage: fsck: sync: %w", err)
	}

	// Re-verify and report the result of the repair.
	rep2, err := checkFile(f, path)
	if err != nil {
		return rep, err
	}
	rep2.Repaired = actions
	return rep2, nil
}

// CorruptPage flips bit (page-relative bit index) of page id in the
// file at path, bypassing every integrity layer. It is the fault
// helper behind ccam-fsck -flip and the CI smoke test; it has no place
// in production code paths.
func CorruptPage(path string, id PageID, bit int) error {
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: corrupt open: %w", err)
	}
	defer f.Close()
	var hdr [fsHeaderLen]byte
	if _, err := f.ReadAt(hdr[:], 0); err != nil {
		return fmt.Errorf("storage: corrupt read header: %w", err)
	}
	ph, err := parseHeader(hdr[:])
	if err != nil && ph.pageSize < 64 {
		return fmt.Errorf("storage: corrupt: %w", err)
	}
	if bit < 0 || bit >= ph.pageSize*8 {
		return fmt.Errorf("storage: corrupt: bit %d outside page of %d bytes", bit, ph.pageSize)
	}
	off := int64(ph.pageSize)*(int64(id)+1) + int64(bit/8)
	var b [1]byte
	if _, err := f.ReadAt(b[:], off); err != nil {
		return fmt.Errorf("storage: corrupt read: %w", err)
	}
	b[0] ^= 1 << (bit % 8)
	if _, err := f.WriteAt(b[:], off); err != nil {
		return fmt.Errorf("storage: corrupt write: %w", err)
	}
	return nil
}
