package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// This file tests the durability story end to end at the storage
// layer: the chained free list across close/reopen, the checksummed
// header, CheckedStore corruption detection, FaultStore injection
// semantics, and the fsck check/repair cycle over crash-shaped damage.

// TestFileStoreFreeListLarge is the regression test for the free-list
// truncation bug: the old header-resident free list silently dropped
// entries past the header capacity ((pageSize-header)/4 ≈ 54 ids at
// 256-byte pages). The chained list must round-trip any count exactly.
func TestFileStoreFreeListLarge(t *testing.T) {
	const (
		pageSize = 256
		total    = 1200 // allocate this many pages...
		keep     = 100  // ...and keep only every 12th: 1100 freed
	)
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, pageSize)
	if err != nil {
		t.Fatal(err)
	}

	payload := func(id PageID) []byte {
		b := make([]byte, pageSize)
		binary.LittleEndian.PutUint32(b, uint32(id))
		copy(b[4:], "surviving payload")
		return b
	}
	var freed, kept []PageID
	for i := 0; i < total; i++ {
		id, err := s.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		if i%12 == 0 {
			kept = append(kept, id)
			if err := s.WritePage(id, payload(id)); err != nil {
				t.Fatal(err)
			}
		} else {
			freed = append(freed, id)
		}
	}
	if len(kept) != keep || len(freed) != total-keep {
		t.Fatalf("setup broken: kept %d freed %d", len(kept), len(freed))
	}
	for _, id := range freed {
		if err := s.Free(id); err != nil {
			t.Fatalf("Free(%d): %v", id, err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("reopen after %d frees: %v", len(freed), err)
	}
	defer s2.Close()
	if got := s2.NumPages(); got != keep {
		t.Fatalf("NumPages = %d, want %d", got, keep)
	}
	ids := s2.PageIDs()
	if len(ids) != keep {
		t.Fatalf("PageIDs len = %d, want %d", len(ids), keep)
	}
	for i, id := range ids {
		if id != kept[i] {
			t.Fatalf("PageIDs[%d] = %d, want %d", i, id, kept[i])
		}
	}
	// Every surviving payload is intact.
	buf := make([]byte, pageSize)
	for _, id := range kept {
		if err := s2.ReadPage(id, buf); err != nil {
			t.Fatalf("ReadPage(%d): %v", id, err)
		}
		if !bytes.Equal(buf, payload(id)) {
			t.Fatalf("page %d payload corrupted across reopen", id)
		}
	}
	// Allocation reuse is exact: the next len(freed) allocations drain
	// the free list (no fresh pages), and the one after extends the
	// file.
	reused := make(map[PageID]bool, len(freed))
	for i := 0; i < len(freed); i++ {
		id, err := s2.Allocate()
		if err != nil {
			t.Fatalf("Allocate #%d from free list: %v", i, err)
		}
		if id >= PageID(total) {
			t.Fatalf("Allocate #%d = %d: fresh page while %d freed pages remain", i, id, len(freed)-i)
		}
		if reused[id] {
			t.Fatalf("page %d handed out twice", id)
		}
		reused[id] = true
	}
	fresh, err := s2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if fresh != PageID(total) {
		t.Fatalf("post-drain Allocate = %d, want fresh page %d", fresh, total)
	}
}

func TestCheckedMemStoreConformance(t *testing.T) {
	cs, err := NewCheckedStore(NewMemStore(512))
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	storeConformance(t, cs)
}

func TestCheckedFileStoreConformance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	cs, _, err := CreateCheckedFileFlags(path, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()
	storeConformance(t, cs)
}

// TestCheckedFileStoreReopen verifies that OpenPageFile honors the
// FlagCheckedPages header flag: a checked file comes back wrapped, with
// the same logical page size, and its payloads verify.
func TestCheckedFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	cs, _, err := CreateCheckedFileFlags(path, 512, 0)
	if err != nil {
		t.Fatal(err)
	}
	id, err := cs.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	w := make([]byte, cs.PageSize())
	copy(w, "checked payload")
	if err := cs.WritePage(id, w); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	st, fs, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	if _, ok := st.(*CheckedStore); !ok {
		t.Fatalf("OpenPageFile returned %T, want *CheckedStore", st)
	}
	if st.PageSize() != 512-ChecksumTrailerLen {
		t.Fatalf("logical page size = %d, want %d", st.PageSize(), 512-ChecksumTrailerLen)
	}
	r := make([]byte, st.PageSize())
	if err := st.ReadPage(id, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("payload corrupted across checked reopen")
	}

	// A plain file stays unwrapped.
	plain := filepath.Join(t.TempDir(), "plain.db")
	ps, err := CreateFileStore(plain, 512)
	if err != nil {
		t.Fatal(err)
	}
	ps.Close()
	st2, fs2, err := OpenPageFile(plain)
	if err != nil {
		t.Fatal(err)
	}
	defer fs2.Close()
	if _, ok := st2.(*FileStore); !ok {
		t.Fatalf("OpenPageFile on plain file returned %T, want *FileStore", st2)
	}
}

// TestClosedStoreSnapshot pins the documented close-snapshot semantics:
// NumPages and PageIDs keep answering on a closed store from the state
// at Close, while page I/O fails with ErrStoreClosed.
func TestClosedStoreSnapshot(t *testing.T) {
	stores := []struct {
		name string
		open func(t *testing.T) Store
	}{
		{"MemStore", func(t *testing.T) Store { return NewMemStore(128) }},
		{"FileStore", func(t *testing.T) Store {
			s, err := CreateFileStore(filepath.Join(t.TempDir(), "p.db"), 128)
			if err != nil {
				t.Fatal(err)
			}
			return s
		}},
	}
	for _, tc := range stores {
		t.Run(tc.name, func(t *testing.T) {
			s := tc.open(t)
			var ids []PageID
			for i := 0; i < 3; i++ {
				id, err := s.Allocate()
				if err != nil {
					t.Fatal(err)
				}
				ids = append(ids, id)
			}
			if err := s.Free(ids[1]); err != nil {
				t.Fatal(err)
			}
			want := []PageID{ids[0], ids[2]}
			if err := s.Close(); err != nil {
				t.Fatal(err)
			}
			if got := s.NumPages(); got != len(want) {
				t.Fatalf("NumPages after Close = %d, want %d", got, len(want))
			}
			got := s.PageIDs()
			if len(got) != len(want) || got[0] != want[0] || got[1] != want[1] {
				t.Fatalf("PageIDs after Close = %v, want %v", got, want)
			}
			buf := make([]byte, 128)
			if err := s.ReadPage(ids[0], buf); !errors.Is(err, ErrStoreClosed) {
				t.Fatalf("ReadPage after Close = %v, want ErrStoreClosed", err)
			}
			// Close is idempotent and the snapshot survives.
			if err := s.Close(); err != nil {
				t.Fatalf("second Close: %v", err)
			}
			if got := s.NumPages(); got != len(want) {
				t.Fatalf("NumPages after second Close = %d", got)
			}
		})
	}
}

// TestFileStoreGenerationMonotonic: every allocator mutation bumps the
// header generation, and the generation survives reopen — it orders
// file versions for fsck.
func TestFileStoreGenerationMonotonic(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	s, err := CreateFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	gen := s.Generation()
	if gen == 0 {
		t.Fatal("fresh store has zero generation")
	}
	id, _ := s.Allocate()
	if g := s.Generation(); g <= gen {
		t.Fatalf("Allocate did not bump generation: %d -> %d", gen, g)
	} else {
		gen = g
	}
	if err := s.Free(id); err != nil {
		t.Fatal(err)
	}
	if g := s.Generation(); g <= gen {
		t.Fatalf("Free did not bump generation: %d -> %d", gen, g)
	} else {
		gen = g
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if g := s2.Generation(); g <= gen {
		t.Fatalf("generation went backwards across reopen: %d -> %d", gen, g)
	}
}

// TestCheckedStoreDetectsBitFlip drives silent single-bit corruption
// through FaultStore on both the read and the write path; the checksum
// layer must surface ErrChecksum either way, and a transient read fault
// must not poison later reads.
func TestCheckedStoreDetectsBitFlip(t *testing.T) {
	fst := NewFaultStore(NewMemStore(256), 1)
	cs, err := NewCheckedStore(fst)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	w := make([]byte, cs.PageSize())
	copy(w, "bit flip victim")
	r := make([]byte, cs.PageSize())

	// Read-side flip: corruption on the wire, media intact.
	id1, _ := cs.Allocate()
	if err := cs.WritePage(id1, w); err != nil {
		t.Fatal(err)
	}
	fst.Inject(Fault{Op: FaultRead, Page: id1, Mode: FaultBitFlip, Count: 1})
	if err := cs.ReadPage(id1, r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("flipped read = %v, want ErrChecksum", err)
	}
	if err := cs.ReadPage(id1, r); err != nil || !bytes.Equal(r, w) {
		t.Fatalf("read after transient flip = %v (payload ok: %v)", err, bytes.Equal(r, w))
	}

	// Write-side flip: the corruption lands on the media silently; the
	// next read must detect it.
	id2, _ := cs.Allocate()
	fst.Inject(Fault{Op: FaultWrite, Page: id2, Mode: FaultBitFlip, Count: 1})
	if err := cs.WritePage(id2, w); err != nil {
		t.Fatalf("bit-flipped write should report success, got %v", err)
	}
	if err := cs.ReadPage(id2, r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of silently corrupted page = %v, want ErrChecksum", err)
	}
	if fst.Injected() != 2 {
		t.Fatalf("Injected = %d, want 2", fst.Injected())
	}
}

// TestCheckedStoreDetectsTornWrite simulates a crash mid-write: the
// spliced half-old/half-new image must fail verification on the next
// read. Seed 2 puts the deterministic cut mid-payload.
func TestCheckedStoreDetectsTornWrite(t *testing.T) {
	fst := NewFaultStore(NewMemStore(256), 2)
	cs, err := NewCheckedStore(fst)
	if err != nil {
		t.Fatal(err)
	}
	defer cs.Close()

	id, _ := cs.Allocate()
	old := bytes.Repeat([]byte{0xAA}, cs.PageSize())
	if err := cs.WritePage(id, old); err != nil {
		t.Fatal(err)
	}
	fst.Inject(Fault{Op: FaultWrite, Page: id, Mode: FaultTornWrite, Count: 1})
	upd := bytes.Repeat([]byte{0x55}, cs.PageSize())
	if err := cs.WritePage(id, upd); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("torn write = %v, want ErrFaultInjected", err)
	}
	r := make([]byte, cs.PageSize())
	if err := cs.ReadPage(id, r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of torn page = %v, want ErrChecksum", err)
	}
}

// TestCheckedStoreDetectsMisdirectedWrite: an intact page image written
// to the wrong offset carries a valid CRC for the wrong id. Folding the
// page id into the checksum must catch it.
func TestCheckedStoreDetectsMisdirectedWrite(t *testing.T) {
	const pageSize = 256
	path := filepath.Join(t.TempDir(), "p.db")
	cs, _, err := CreateCheckedFileFlags(path, pageSize, 0)
	if err != nil {
		t.Fatal(err)
	}
	id0, _ := cs.Allocate()
	id1, _ := cs.Allocate()
	w := make([]byte, cs.PageSize())
	copy(w, "page zero")
	if err := cs.WritePage(id0, w); err != nil {
		t.Fatal(err)
	}
	copy(w, "page one!")
	if err := cs.WritePage(id1, w); err != nil {
		t.Fatal(err)
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}

	// Copy page 1's physical image over page 0: a perfectly intact page
	// at the wrong address.
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	img := make([]byte, pageSize)
	if _, err := f.ReadAt(img, int64(pageSize)*(int64(id1)+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt(img, int64(pageSize)*(int64(id0)+1)); err != nil {
		t.Fatal(err)
	}
	f.Close()

	st, fs, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	defer fs.Close()
	r := make([]byte, st.PageSize())
	if err := st.ReadPage(id0, r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("misdirected page read = %v, want ErrChecksum", err)
	}
	if err := st.ReadPage(id1, r); err != nil {
		t.Fatalf("untouched page unreadable: %v", err)
	}
}

// TestOpenFileStoreDetectsTornHeader: a bit flipped in the header (here
// in the generation field, leaving the geometry plausible) must fail
// the header CRC on open, and RepairFile must rebuild it from the file.
func TestOpenFileStoreDetectsTornHeader(t *testing.T) {
	path := filepath.Join(t.TempDir(), "p.db")
	s, err := CreateFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	var ids []PageID
	w := make([]byte, 128)
	for i := 0; i < 4; i++ {
		id, _ := s.Allocate()
		ids = append(ids, id)
		sp := NewSlottedPage(w)
		if _, err := sp.Insert([]byte(fmt.Sprintf("record %d", i))); err != nil {
			t.Fatal(err)
		}
		if err := s.WritePage(id, w); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Free(ids[2]); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the header: flip one bit of the generation field (byte 30).
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	var b [1]byte
	if _, err := f.ReadAt(b[:], 30); err != nil {
		t.Fatal(err)
	}
	b[0] ^= 0x10
	if _, err := f.WriteAt(b[:], 30); err != nil {
		t.Fatal(err)
	}
	f.Close()

	if _, err := OpenFileStore(path); !errors.Is(err, ErrChecksum) {
		t.Fatalf("open with torn header = %v, want ErrChecksum", err)
	}
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HeaderErr == nil || !errors.Is(rep.HeaderErr, ErrChecksum) {
		t.Fatalf("fsck HeaderErr = %v, want ErrChecksum", rep.HeaderErr)
	}

	rep, err = RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("repair left damage: header=%v freelist=%v damaged=%v",
			rep.HeaderErr, rep.FreeListErr, rep.Damaged)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatalf("open after header repair: %v", err)
	}
	defer s2.Close()
	if got := s2.NumPages(); got != 3 {
		t.Fatalf("NumPages after repair = %d, want 3", got)
	}
	// The freed page was recovered from its on-page marker.
	if err := s2.ReadPage(ids[2], w); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("freed page resurrected by repair: %v", err)
	}
}

// TestFaultStoreRules pins the injection semantics: After skips, Count
// limits, first-match ordering, custom error wrapping and Clear.
func TestFaultStoreRules(t *testing.T) {
	fst := NewFaultStore(NewMemStore(128), 1)
	defer fst.Close()
	id, err := fst.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, 128)

	// After: the first two reads pass, the third fails.
	fst.FailAfter(FaultRead, 2)
	for i := 0; i < 2; i++ {
		if err := fst.ReadPage(id, buf); err != nil {
			t.Fatalf("read %d before arming point: %v", i, err)
		}
	}
	if err := fst.ReadPage(id, buf); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("read past arming point = %v, want ErrFaultInjected", err)
	}
	fst.Clear()
	if err := fst.ReadPage(id, buf); err != nil {
		t.Fatalf("read after Clear: %v", err)
	}

	// Count: exactly two writes fail, then the rule is exhausted.
	errDisk := errors.New("disk on fire")
	fst.Inject(Fault{Op: FaultWrite, Page: AnyPage, Count: 2, Err: errDisk})
	for i := 0; i < 2; i++ {
		err := fst.WritePage(id, buf)
		if !errors.Is(err, errDisk) || !errors.Is(err, ErrFaultInjected) {
			t.Fatalf("write %d = %v, want both errDisk and ErrFaultInjected", i, err)
		}
	}
	if err := fst.WritePage(id, buf); err != nil {
		t.Fatalf("write after Count exhausted: %v", err)
	}

	// Page targeting: faults on another page leave this one alone.
	id2, _ := fst.Allocate()
	fst.Inject(Fault{Op: FaultFree, Page: id2})
	if err := fst.Free(id2); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("free of targeted page = %v", err)
	}
	if err := fst.Free(id); err != nil {
		t.Fatalf("free of untargeted page: %v", err)
	}

	if got := fst.Injected(); got != 4 {
		t.Fatalf("Injected = %d, want 4", got)
	}
}

// TestFaultStoreDeterministic: equal seeds and operation sequences
// produce bit-identical corruption, so a failing sequence replays.
func TestFaultStoreDeterministic(t *testing.T) {
	run := func() []byte {
		ms := NewMemStore(128)
		fst := NewFaultStore(ms, 42)
		id, _ := fst.Allocate()
		fst.Inject(Fault{Op: FaultWrite, Page: id, Mode: FaultBitFlip, Count: 1})
		w := bytes.Repeat([]byte{0x5A}, 128)
		if err := fst.WritePage(id, w); err != nil {
			t.Fatal(err)
		}
		raw := make([]byte, 128)
		if err := ms.ReadPage(id, raw); err != nil {
			t.Fatal(err)
		}
		return raw
	}
	a, b := run(), run()
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different corruption")
	}
	if bytes.Equal(a, bytes.Repeat([]byte{0x5A}, 128)) {
		t.Fatal("bit flip did not corrupt the image")
	}
}

// TestCrashSimulation is the full crash drill: a torn write kills the
// "process" mid-update, the file is reopened cold, fsck locates exactly
// the torn page, repair quarantines it, and the store serves the
// surviving pages.
func TestCrashSimulation(t *testing.T) {
	const pageSize = 256
	path := filepath.Join(t.TempDir(), "crash.db")
	inner, err := createFileStore(path, pageSize, FlagCheckedPages)
	if err != nil {
		t.Fatal(err)
	}
	fst := NewFaultStore(inner, 2) // seed 2: deterministic mid-payload cut
	cs, err := NewCheckedStore(fst)
	if err != nil {
		t.Fatal(err)
	}

	// Each page is a valid slotted page holding one record that fills
	// it, so fsck's full page verification passes every intact page.
	payload := func(id PageID, fill byte) []byte {
		b := make([]byte, cs.PageSize())
		sp := NewSlottedPage(b)
		rec := bytes.Repeat([]byte{fill}, sp.Capacity())
		binary.LittleEndian.PutUint32(rec, uint32(id))
		if _, err := sp.Insert(rec); err != nil {
			t.Fatal(err)
		}
		return b
	}
	var ids []PageID
	for i := 0; i < 6; i++ {
		id, err := cs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, id)
		if err := cs.WritePage(id, payload(id, 0xAA)); err != nil {
			t.Fatal(err)
		}
	}

	// The device dies mid-write of page 3; then the process "crashes":
	// the file is abandoned without Close (no header rewrite, no sync).
	victim := ids[3]
	fst.Inject(Fault{Op: FaultWrite, Page: victim, Mode: FaultTornWrite, Count: 1})
	if err := cs.WritePage(victim, payload(victim, 0x55)); !errors.Is(err, ErrFaultInjected) {
		t.Fatalf("torn write = %v, want ErrFaultInjected", err)
	}
	if err := inner.f.Close(); err != nil { // simulated crash, not Close()
		t.Fatal(err)
	}

	// Cold restart: fsck must locate exactly the torn page.
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if rep.HeaderErr != nil || rep.FreeListErr != nil {
		t.Fatalf("crash broke file structure: header=%v freelist=%v", rep.HeaderErr, rep.FreeListErr)
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0].ID != victim {
		t.Fatalf("damaged = %v, want exactly page %d", rep.Damaged, victim)
	}
	if !errors.Is(rep.Damaged[0].Err, ErrChecksum) {
		t.Fatalf("damage = %v, want ErrChecksum", rep.Damaged[0].Err)
	}

	// The store itself refuses the torn page but serves the rest.
	st, fs2, err := OpenPageFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r := make([]byte, st.PageSize())
	if err := st.ReadPage(victim, r); !errors.Is(err, ErrChecksum) {
		t.Fatalf("read of torn page = %v, want ErrChecksum", err)
	}
	fs2.Close()

	// Repair quarantines the page; afterwards the file is clean, the
	// victim is gone, the survivors are intact, and the quarantined
	// page is recycled by the next allocation.
	rep, err = RepairFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("file still damaged after repair: %v", rep.Damaged)
	}
	st, fs2, err = OpenPageFile(path)
	if err != nil {
		t.Fatalf("reopen after repair: %v", err)
	}
	defer fs2.Close()
	if err := st.ReadPage(victim, r); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("quarantined page = %v, want ErrPageNotFound", err)
	}
	for _, id := range ids {
		if id == victim {
			continue
		}
		if err := st.ReadPage(id, r); err != nil {
			t.Fatalf("survivor page %d: %v", id, err)
		}
		if !bytes.Equal(r, payload(id, 0xAA)) {
			t.Fatalf("survivor page %d corrupted by repair", id)
		}
	}
	got, err := st.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if got != victim {
		t.Fatalf("Allocate after repair = %d, want recycled quarantine page %d", got, victim)
	}
}

// TestSlottedPageCorruptImages is the table test over hand-corrupted
// page images: LoadSlottedPage, Get and Validate must reject each
// specific invariant violation with ErrCorruptedPage.
func TestSlottedPageCorruptImages(t *testing.T) {
	const pageSize = 128
	// makeImage lays out a raw page image: header fields plus explicit
	// slot directory entries, bypassing the safe Insert path.
	makeImage := func(slots [][2]uint16, heapEnd, live uint16) []byte {
		buf := make([]byte, pageSize)
		binary.LittleEndian.PutUint16(buf[0:2], uint16(len(slots)))
		binary.LittleEndian.PutUint16(buf[2:4], heapEnd)
		binary.LittleEndian.PutUint16(buf[4:6], live)
		for i, s := range slots {
			pos := pageSize - (i+1)*slotSize
			binary.LittleEndian.PutUint16(buf[pos:], s[0])
			binary.LittleEndian.PutUint16(buf[pos+2:], s[1])
		}
		return buf
	}

	cases := []struct {
		name     string
		img      []byte
		loadErr  bool // LoadSlottedPage must fail
		getSlot  int  // when ≥ 0 and load succeeds: Get must fail
		validErr bool // when load succeeds: Validate must fail
	}{
		{
			name:    "heap overlaps slot directory",
			img:     makeImage([][2]uint16{{12, 4}, {16, 4}, {20, 4}, {24, 4}}, pageSize-4*slotSize+2, 4),
			loadErr: true,
			getSlot: -1,
		},
		{
			name:    "heap end below header",
			img:     makeImage([][2]uint16{{12, 4}}, slottedHeaderSize-4, 1),
			loadErr: true,
			getSlot: -1,
		},
		{
			name:    "slot count larger than page",
			img:     makeImage(nil, 40, 0),
			loadErr: true,
			getSlot: -1,
		},
		{
			name:     "slot offset below header",
			img:      makeImage([][2]uint16{{6, 4}}, 40, 1),
			getSlot:  0,
			validErr: true,
		},
		{
			name:     "slot end past heap end",
			img:      makeImage([][2]uint16{{20, 40}}, 40, 1),
			getSlot:  0,
			validErr: true,
		},
		{
			name:     "overlapping records",
			img:      makeImage([][2]uint16{{12, 10}, {16, 10}}, 40, 2),
			getSlot:  -1, // each record is individually in bounds
			validErr: true,
		},
		{
			name:     "live count disagrees with directory",
			img:      makeImage([][2]uint16{{12, 4}}, 40, 3),
			getSlot:  -1,
			validErr: true,
		},
		{
			name:    "valid image",
			img:     makeImage([][2]uint16{{12, 4}, {16, 8}}, 40, 2),
			getSlot: -1,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			if tc.name == "slot count larger than page" {
				// Overwrite the count after makeImage (which clamps to
				// the provided slots).
				binary.LittleEndian.PutUint16(tc.img[0:2], 1000)
			}
			p, err := LoadSlottedPage(tc.img)
			if tc.loadErr {
				if !errors.Is(err, ErrCorruptedPage) {
					t.Fatalf("LoadSlottedPage = %v, want ErrCorruptedPage", err)
				}
				return
			}
			if err != nil {
				t.Fatalf("LoadSlottedPage: %v", err)
			}
			if tc.getSlot >= 0 {
				if _, err := p.Get(tc.getSlot); !errors.Is(err, ErrCorruptedPage) {
					t.Fatalf("Get(%d) = %v, want ErrCorruptedPage", tc.getSlot, err)
				}
			}
			if err := p.Validate(); (err != nil) != tc.validErr {
				t.Fatalf("Validate = %v, want error: %v", err, tc.validErr)
			}
			if tc.validErr && !errors.Is(p.Validate(), ErrCorruptedPage) {
				t.Fatalf("Validate error does not wrap ErrCorruptedPage: %v", p.Validate())
			}
		})
	}
}

// TestFsckCleanFile: a pristine checked file full of real slotted pages
// passes verification.
func TestFsckCleanFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "clean.db")
	cs, _, err := CreateCheckedFileFlags(path, 256, 0)
	if err != nil {
		t.Fatal(err)
	}
	buf := make([]byte, cs.PageSize())
	for i := 0; i < 5; i++ {
		id, err := cs.Allocate()
		if err != nil {
			t.Fatal(err)
		}
		sp := NewSlottedPage(buf)
		for j := 0; j < 3; j++ {
			if _, err := sp.Insert([]byte(fmt.Sprintf("rec %d/%d", i, j))); err != nil {
				t.Fatal(err)
			}
		}
		if err := cs.WritePage(id, buf); err != nil {
			t.Fatal(err)
		}
	}
	if err := cs.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.OK() {
		t.Fatalf("pristine file flagged: header=%v freelist=%v damaged=%v",
			rep.HeaderErr, rep.FreeListErr, rep.Damaged)
	}
	if rep.LivePages != 5 || !rep.Checked {
		t.Fatalf("report = %+v", rep)
	}

	// CorruptPage + CheckFile: the helper's bit lands where it says.
	if err := CorruptPage(path, 2, 100*8); err != nil {
		t.Fatal(err)
	}
	rep, err = CheckFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0].ID != 2 {
		t.Fatalf("damaged = %v, want exactly page 2", rep.Damaged)
	}
}
