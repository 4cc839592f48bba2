package storage

import (
	"bytes"
	"encoding/binary"
	"errors"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"testing"
	"testing/quick"
)

// storeConformance exercises any Store implementation.
func storeConformance(t *testing.T, s Store) {
	t.Helper()
	ps := s.PageSize()

	id1, err := s.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	id2, err := s.Allocate()
	if err != nil {
		t.Fatalf("Allocate: %v", err)
	}
	if id1 == id2 {
		t.Fatal("Allocate returned duplicate IDs")
	}
	if got := s.NumPages(); got != 2 {
		t.Fatalf("NumPages = %d, want 2", got)
	}

	w := make([]byte, ps)
	for i := range w {
		w[i] = byte(i)
	}
	if err := s.WritePage(id1, w); err != nil {
		t.Fatalf("WritePage: %v", err)
	}
	r := make([]byte, ps)
	if err := s.ReadPage(id1, r); err != nil {
		t.Fatalf("ReadPage: %v", err)
	}
	if !bytes.Equal(w, r) {
		t.Fatal("read back differs from written page")
	}

	// Fresh page is zeroed.
	if err := s.ReadPage(id2, r); err != nil {
		t.Fatalf("ReadPage fresh: %v", err)
	}
	for _, b := range r {
		if b != 0 {
			t.Fatal("fresh page not zeroed")
		}
	}

	// Size mismatch rejected.
	if err := s.WritePage(id1, w[:ps-1]); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("short write err = %v, want ErrSizeMismatch", err)
	}
	if err := s.ReadPage(id1, r[:ps-1]); !errors.Is(err, ErrSizeMismatch) {
		t.Fatalf("short read err = %v, want ErrSizeMismatch", err)
	}

	// Free + reuse.
	if err := s.Free(id1); err != nil {
		t.Fatalf("Free: %v", err)
	}
	if err := s.ReadPage(id1, r); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("read freed page err = %v, want ErrPageNotFound", err)
	}
	if err := s.Free(id1); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("double free err = %v, want ErrPageNotFound", err)
	}
	id3, err := s.Allocate()
	if err != nil {
		t.Fatalf("Allocate after free: %v", err)
	}
	if id3 != id1 {
		t.Logf("note: store did not recycle freed id (got %d, freed %d)", id3, id1)
	}
	if err := s.ReadPage(id3, r); err != nil {
		t.Fatalf("ReadPage recycled: %v", err)
	}
	for _, b := range r {
		if b != 0 {
			t.Fatal("recycled page not zeroed")
		}
	}
}

func TestMemStoreConformance(t *testing.T) {
	s := NewMemStore(512)
	defer s.Close()
	storeConformance(t, s)
}

func TestFileStoreConformance(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, 512)
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	storeConformance(t, s)
}

func TestFileStoreReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, 256)
	if err != nil {
		t.Fatal(err)
	}
	id1, _ := s.Allocate()
	id2, _ := s.Allocate()
	id3, _ := s.Allocate()
	w := make([]byte, 256)
	copy(w, []byte("persistent payload"))
	if err := s.WritePage(id2, w); err != nil {
		t.Fatal(err)
	}
	if err := s.Free(id3); err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}

	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	if s2.PageSize() != 256 {
		t.Fatalf("page size = %d, want 256", s2.PageSize())
	}
	if s2.NumPages() != 2 {
		t.Fatalf("NumPages = %d, want 2", s2.NumPages())
	}
	r := make([]byte, 256)
	if err := s2.ReadPage(id2, r); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(r, w) {
		t.Fatal("payload lost across reopen")
	}
	// Freed page stays freed and is recycled.
	if err := s2.ReadPage(id3, r); !errors.Is(err, ErrPageNotFound) {
		t.Fatalf("freed page readable after reopen: %v", err)
	}
	id4, err := s2.Allocate()
	if err != nil {
		t.Fatal(err)
	}
	if id4 != id3 {
		t.Fatalf("recycled id = %d, want %d", id4, id3)
	}
	_ = id1
}

// TestFileStoreLiveness: a page is live when it is below the high-water
// mark and off the free list. ReadPage, WritePage and Free of a freed
// id and of an id past the mark fail with ErrPageNotFound, a recycled id
// is live again, and NumPages and PageIDs answer the same across a
// reopen.
func TestFileStoreLiveness(t *testing.T) {
	path := filepath.Join(t.TempDir(), "pages.db")
	s, err := CreateFileStore(path, 128)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 6; i++ {
		if _, err := s.Allocate(); err != nil {
			t.Fatal(err)
		}
	}
	for _, id := range []PageID{1, 4, 3} {
		if err := s.Free(id); err != nil {
			t.Fatal(err)
		}
	}
	recycled, err := s.Allocate() // LIFO: the last page freed
	if err != nil {
		t.Fatal(err)
	}
	if recycled != 3 {
		t.Fatalf("recycled id = %d, want 3", recycled)
	}
	buf := make([]byte, 128)
	check := func(s *FileStore, stage string) {
		t.Helper()
		for _, id := range []PageID{1, 4, 6, 99, InvalidPageID} {
			if err := s.ReadPage(id, buf); !errors.Is(err, ErrPageNotFound) {
				t.Fatalf("%s: ReadPage(%d) = %v, want ErrPageNotFound", stage, id, err)
			}
			if err := s.WritePage(id, buf); !errors.Is(err, ErrPageNotFound) {
				t.Fatalf("%s: WritePage(%d) = %v, want ErrPageNotFound", stage, id, err)
			}
			if err := s.Free(id); !errors.Is(err, ErrPageNotFound) {
				t.Fatalf("%s: Free(%d) = %v, want ErrPageNotFound", stage, id, err)
			}
		}
		for _, id := range []PageID{0, 2, 3, 5} {
			if err := s.ReadPage(id, buf); err != nil {
				t.Fatalf("%s: ReadPage(%d) = %v", stage, id, err)
			}
			if err := s.WritePage(id, buf); err != nil {
				t.Fatalf("%s: WritePage(%d) = %v", stage, id, err)
			}
		}
		if n, ids := s.NumPages(), s.PageIDs(); n != 4 || !slices.Equal(ids, []PageID{0, 2, 3, 5}) {
			t.Fatalf("%s: NumPages %d, PageIDs %v; want 4, [0 2 3 5]", stage, n, ids)
		}
	}
	check(s, "before reopen")
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if n, ids := s.NumPages(), s.PageIDs(); n != 4 || !slices.Equal(ids, []PageID{0, 2, 3, 5}) {
		t.Fatalf("after close: NumPages %d, PageIDs %v; want 4, [0 2 3 5]", n, ids)
	}
	s2, err := OpenFileStore(path)
	if err != nil {
		t.Fatal(err)
	}
	defer s2.Close()
	check(s2, "after reopen")
}

func TestOpenFileStoreRejectsGarbage(t *testing.T) {
	path := filepath.Join(t.TempDir(), "garbage.db")
	if err := os.WriteFile(path, make([]byte, 64), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenFileStore(path); err == nil {
		t.Fatal("OpenFileStore accepted a garbage file")
	}
}

func TestMemStoreClosed(t *testing.T) {
	s := NewMemStore(128)
	id, _ := s.Allocate()
	s.Close()
	buf := make([]byte, 128)
	if err := s.ReadPage(id, buf); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("err = %v, want ErrStoreClosed", err)
	}
	if _, err := s.Allocate(); !errors.Is(err, ErrStoreClosed) {
		t.Fatalf("err = %v, want ErrStoreClosed", err)
	}
}

func TestSlottedPageBasic(t *testing.T) {
	p := NewSlottedPage(make([]byte, 256))
	if p.Len() != 0 {
		t.Fatalf("fresh page Len = %d", p.Len())
	}
	s1, err := p.Insert([]byte("alpha"))
	if err != nil {
		t.Fatal(err)
	}
	s2, err := p.Insert([]byte("bravo-longer"))
	if err != nil {
		t.Fatal(err)
	}
	if p.Len() != 2 {
		t.Fatalf("Len = %d, want 2", p.Len())
	}
	got, err := p.Get(s1)
	if err != nil || string(got) != "alpha" {
		t.Fatalf("Get(s1) = %q, %v", got, err)
	}
	got, err = p.Get(s2)
	if err != nil || string(got) != "bravo-longer" {
		t.Fatalf("Get(s2) = %q, %v", got, err)
	}
	if err := p.Delete(s1); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Get(s1); !errors.Is(err, ErrSlotNotFound) {
		t.Fatalf("Get deleted = %v", err)
	}
	if err := p.Delete(s1); !errors.Is(err, ErrSlotNotFound) {
		t.Fatalf("double delete = %v", err)
	}
	// Slot of s2 survives deletion of s1.
	got, err = p.Get(s2)
	if err != nil || string(got) != "bravo-longer" {
		t.Fatalf("Get(s2) after delete = %q, %v", got, err)
	}
}

func TestSlottedPageTagAndReset(t *testing.T) {
	p := NewSlottedPage(make([]byte, 128))
	p.SetTag(0xDEADBEEF)
	if p.Tag() != 0xDEADBEEF {
		t.Fatalf("tag = %#x", p.Tag())
	}
	p.Insert([]byte("x"))
	p.Reset()
	if p.Len() != 0 || p.Tag() != 0 {
		t.Fatal("Reset did not clear page")
	}
}

func TestSlottedPageRejectsOversized(t *testing.T) {
	p := NewSlottedPage(make([]byte, 128))
	if _, err := p.Insert(make([]byte, 128)); !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("err = %v, want ErrRecordTooBig", err)
	}
	if _, err := p.Insert(make([]byte, p.Capacity())); err != nil {
		t.Fatalf("capacity-sized insert failed: %v", err)
	}
}

func TestSlottedPageFullThenDelete(t *testing.T) {
	p := NewSlottedPage(make([]byte, 256))
	rec := make([]byte, 40)
	var slots []int
	for {
		s, err := p.Insert(rec)
		if err != nil {
			if !errors.Is(err, ErrPageFull) {
				t.Fatalf("unexpected insert err: %v", err)
			}
			break
		}
		slots = append(slots, s)
	}
	if len(slots) < 4 {
		t.Fatalf("expected several records, got %d", len(slots))
	}
	if err := p.Delete(slots[0]); err != nil {
		t.Fatal(err)
	}
	if _, err := p.Insert(rec); err != nil {
		t.Fatalf("insert after delete should succeed (compaction): %v", err)
	}
}

func TestSlottedPageCompactionPreservesRecords(t *testing.T) {
	p := NewSlottedPage(make([]byte, 512))
	rng := rand.New(rand.NewSource(42))
	contents := map[int][]byte{}
	// Interleave inserts and deletes to fragment the heap.
	for i := 0; i < 200; i++ {
		if len(contents) > 0 && rng.Intn(3) == 0 {
			for s := range contents {
				if err := p.Delete(s); err != nil {
					t.Fatal(err)
				}
				delete(contents, s)
				break
			}
			continue
		}
		rec := make([]byte, 8+rng.Intn(32))
		rng.Read(rec)
		s, err := p.Insert(rec)
		if err != nil {
			if errors.Is(err, ErrPageFull) {
				continue
			}
			t.Fatal(err)
		}
		if _, dup := contents[s]; dup {
			t.Fatalf("slot %d reused while live", s)
		}
		contents[s] = append([]byte(nil), rec...)
	}
	if p.Len() != len(contents) {
		t.Fatalf("Len = %d, want %d", p.Len(), len(contents))
	}
	for s, want := range contents {
		got, err := p.Get(s)
		if err != nil {
			t.Fatalf("Get(%d): %v", s, err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("slot %d content corrupted", s)
		}
	}
	// Slots() matches the live set.
	live := p.Slots()
	if len(live) != len(contents) {
		t.Fatalf("Slots len = %d, want %d", len(live), len(contents))
	}
	for _, s := range live {
		if _, ok := contents[s]; !ok {
			t.Fatalf("Slots reported dead slot %d", s)
		}
	}
}

func TestSlottedPageUpdate(t *testing.T) {
	p := NewSlottedPage(make([]byte, 256))
	s, err := p.Insert([]byte("short"))
	if err != nil {
		t.Fatal(err)
	}
	other, err := p.Insert([]byte("other-record"))
	if err != nil {
		t.Fatal(err)
	}
	// Shrink in place.
	if err := p.Update(s, []byte("st")); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(s); string(got) != "st" {
		t.Fatalf("after shrink = %q", got)
	}
	// Grow.
	long := bytes.Repeat([]byte("g"), 100)
	if err := p.Update(s, long); err != nil {
		t.Fatal(err)
	}
	if got, _ := p.Get(s); !bytes.Equal(got, long) {
		t.Fatal("grown record corrupted")
	}
	if got, _ := p.Get(other); string(got) != "other-record" {
		t.Fatal("neighbor record damaged by update")
	}
	// Grow past capacity fails and leaves record intact.
	if err := p.Update(s, make([]byte, 500)); !errors.Is(err, ErrPageFull) && !errors.Is(err, ErrRecordTooBig) {
		t.Fatalf("oversized update err = %v", err)
	}
}

func TestSlottedPageLoadValidates(t *testing.T) {
	buf := make([]byte, 128)
	buf[0] = 0xFF // absurd slot count
	buf[1] = 0xFF
	if _, err := LoadSlottedPage(buf); !errors.Is(err, ErrCorruptedPage) {
		t.Fatalf("err = %v, want ErrCorruptedPage", err)
	}
	// Round trip through bytes.
	p := NewSlottedPage(make([]byte, 128))
	s, _ := p.Insert([]byte("roundtrip"))
	q, err := LoadSlottedPage(p.Bytes())
	if err != nil {
		t.Fatal(err)
	}
	got, err := q.Get(s)
	if err != nil || string(got) != "roundtrip" {
		t.Fatalf("Get after load = %q, %v", got, err)
	}
}

// FuzzViewSlottedPage feeds arbitrary page images to the decoder the
// read path trusts on every page visit (ViewSlottedPage; LoadSlottedPage
// is the same check by pointer). Whatever the bytes, the outcome is a
// wrapped ErrCorruptedPage — from the decoder, from the slot walk the
// cursor makes or from Validate — or a page that validates and whose
// every slot reads back; never a panic or a read past the image.
func FuzzViewSlottedPage(f *testing.F) {
	valid := NewSlottedPage(make([]byte, 128))
	for _, rec := range []string{"alpha", "bravo!", "charlie"} {
		if _, err := valid.Insert([]byte(rec)); err != nil {
			f.Fatal(err)
		}
	}
	if err := valid.Delete(1); err != nil {
		f.Fatal(err)
	}
	f.Add(valid.Bytes())
	f.Add(valid.Bytes()[:64])                  // truncated: the slot directory is gone
	f.Add(valid.Bytes()[:slottedHeaderSize-1]) // truncated inside the header
	overlap := NewSlottedPage(append([]byte(nil), valid.Bytes()...))
	off, _ := overlap.slot(0)
	overlap.setSlot(2, off+1, 5) // slot 2 now lies inside slot 0's record
	f.Add(overlap.Bytes())

	f.Fuzz(func(t *testing.T, img []byte) {
		// An exact-capacity copy: a read past len is a read past cap.
		img = append(make([]byte, 0, len(img)), img...)
		v, verr := ViewSlottedPage(img)
		l, lerr := LoadSlottedPage(img)
		if (verr == nil) != (lerr == nil) {
			t.Fatalf("ViewSlottedPage err %v, LoadSlottedPage err %v", verr, lerr)
		}
		if verr != nil {
			if !errors.Is(verr, ErrCorruptedPage) {
				t.Fatalf("ViewSlottedPage error %v does not wrap ErrCorruptedPage", verr)
			}
			return
		}
		var walkErr error
		for i := 0; i < v.NumSlots(); i++ {
			if _, _, err := v.Record(i); err != nil {
				if !errors.Is(err, ErrCorruptedPage) {
					t.Fatalf("Record(%d) error %v does not wrap ErrCorruptedPage", i, err)
				}
				walkErr = err
			}
		}
		_, _ = v.FreeSpace(), v.UsedBytes() // open reads both off every page
		switch err := l.Validate(); {
		case err == nil && walkErr != nil:
			t.Fatalf("Validate passes a page whose slot walk fails: %v", walkErr)
		case err != nil && !errors.Is(err, ErrCorruptedPage):
			t.Fatalf("Validate error %v does not wrap ErrCorruptedPage", err)
		}
	})
}

// FuzzSlotStability drives a slotted page through a fuzzed program of
// inserts, growing and shrinking updates, deletes and compactions,
// against a model of its slot directory. A live record keeps its slot
// until it is deleted — the node index stores slot numbers — Insert
// takes the first tombstone, and no slot number reaches MaxSlots for
// the program's smallest record, the bound a record id's slot bits
// encode. After every step each live record reads back its own bytes
// and the page validates.
func FuzzSlotStability(f *testing.F) {
	f.Add(byte(1), byte(22), []byte{0, 10, 0, 40, 0, 3, 2, 1, 1, 200, 0, 90, 3, 0, 0, 0, 0, 12, 2, 2, 1, 5, 0, 0, 3, 1})
	f.Add(byte(0), byte(0), []byte{0, 0, 0, 0, 0, 0, 0, 0, 2, 0, 2, 1, 0, 0, 1, 255, 3, 0, 0, 0})
	f.Add(byte(3), byte(22), []byte{0, 47, 0, 47, 0, 47, 1, 0, 1, 252, 2, 1, 0, 5, 3, 0, 1, 1})
	f.Fuzz(func(t *testing.T, size, minRec byte, prog []byte) {
		pageSize := []int{128, 256, 512, 2048}[size%4]
		least := 4 + int(minRec)%60
		bound := MaxSlots(pageSize, least)
		p := NewSlottedPage(make([]byte, pageSize))
		var dir []int // slot → record tag, -1 for a tombstone
		recs := map[int][]byte{}
		record := func(tag, extra int) []byte {
			b := bytes.Repeat([]byte{byte(tag)}, least+extra)
			binary.LittleEndian.PutUint32(b, uint32(tag))
			return b
		}
		liveSlot := func(arg byte) (int, bool) {
			var live []int
			for slot, tag := range dir {
				if tag >= 0 {
					live = append(live, slot)
				}
			}
			if len(live) == 0 {
				return 0, false
			}
			return live[int(arg)%len(live)], true
		}
		next := 0
		for i := 0; i+1 < len(prog) && i < 1024; i += 2 {
			arg := prog[i+1]
			switch prog[i] % 4 {
			case 0:
				b := record(next, int(arg)%48)
				want := slices.Index(dir, -1)
				if want < 0 {
					want = len(dir)
				}
				slot, err := p.Insert(b)
				if errors.Is(err, ErrPageFull) {
					continue
				}
				if err != nil {
					t.Fatalf("step %d: insert: %v", i/2, err)
				}
				if slot != want {
					t.Fatalf("step %d: insert took slot %d, want %d (directory %v)", i/2, slot, want, dir)
				}
				if slot >= bound {
					t.Fatalf("step %d: slot %d of a %d-byte page with records of at least %d bytes; MaxSlots is %d",
						i/2, slot, pageSize, least, bound)
				}
				if slot == len(dir) {
					dir = append(dir, next)
				} else {
					dir[slot] = next
				}
				recs[next] = b
				next++
			case 1:
				slot, ok := liveSlot(arg)
				if !ok {
					continue
				}
				b := record(dir[slot], int(arg>>2)%48)
				if err := p.Update(slot, b); errors.Is(err, ErrPageFull) {
					continue
				} else if err != nil {
					t.Fatalf("step %d: update slot %d: %v", i/2, slot, err)
				}
				recs[dir[slot]] = b
			case 2:
				slot, ok := liveSlot(arg)
				if !ok {
					continue
				}
				if err := p.Delete(slot); err != nil {
					t.Fatalf("step %d: delete slot %d: %v", i/2, slot, err)
				}
				delete(recs, dir[slot])
				dir[slot] = -1
				for len(dir) > 0 && dir[len(dir)-1] < 0 {
					dir = dir[:len(dir)-1]
				}
			case 3:
				p.compact()
			}
			if p.NumSlots() != len(dir) {
				t.Fatalf("step %d: %d slots, want %d", i/2, p.NumSlots(), len(dir))
			}
			for slot, tag := range dir {
				got, live, err := p.Record(slot)
				if err != nil || live != (tag >= 0) || (live && !bytes.Equal(got, recs[tag])) {
					t.Fatalf("step %d: slot %d reads %x (live %v, %v), want record %d", i/2, slot, got, live, err, tag)
				}
			}
			if err := p.Validate(); err != nil {
				t.Fatalf("step %d: %v", i/2, err)
			}
		}
	})
}

func TestSlottedPageFreeSpaceMonotone(t *testing.T) {
	p := NewSlottedPage(make([]byte, 512))
	prev := p.FreeSpace()
	for i := 0; i < 10; i++ {
		if _, err := p.Insert(make([]byte, 20)); err != nil {
			t.Fatal(err)
		}
		fs := p.FreeSpace()
		if fs >= prev {
			t.Fatalf("FreeSpace did not decrease: %d -> %d", prev, fs)
		}
		prev = fs
	}
}

func TestStatsSub(t *testing.T) {
	a := Stats{Reads: 10, Writes: 5, Allocs: 2, Frees: 1}
	b := Stats{Reads: 4, Writes: 2, Allocs: 1, Frees: 0}
	d := a.Sub(b)
	if d.Reads != 6 || d.Writes != 3 || d.Allocs != 1 || d.Frees != 1 {
		t.Fatalf("Sub = %+v", d)
	}
	if d.Total() != 9 {
		t.Fatalf("Total = %d", d.Total())
	}
}

func TestSlottedPageQuickProperty(t *testing.T) {
	// Property: for any sequence of insert/delete/update operations the
	// page behaves like a map slot -> bytes.
	f := func(ops []uint16, seed int64) bool {
		p := NewSlottedPage(make([]byte, 512))
		rng := rand.New(rand.NewSource(seed))
		shadow := map[int][]byte{}
		for _, op := range ops {
			switch op % 3 {
			case 0: // insert
				rec := make([]byte, 1+int(op%97))
				rng.Read(rec)
				s, err := p.Insert(rec)
				if err != nil {
					if errors.Is(err, ErrPageFull) || errors.Is(err, ErrRecordTooBig) {
						continue
					}
					return false
				}
				shadow[s] = append([]byte(nil), rec...)
			case 1: // delete an arbitrary live slot
				for s := range shadow {
					if err := p.Delete(s); err != nil {
						return false
					}
					delete(shadow, s)
					break
				}
			case 2: // update an arbitrary live slot
				for s := range shadow {
					rec := make([]byte, 1+int(op%61))
					rng.Read(rec)
					if err := p.Update(s, rec); err != nil {
						if errors.Is(err, ErrPageFull) {
							break
						}
						return false
					}
					shadow[s] = append([]byte(nil), rec...)
					break
				}
			}
		}
		if p.Len() != len(shadow) {
			return false
		}
		for s, want := range shadow {
			got, err := p.Get(s)
			if err != nil || !bytes.Equal(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

func TestMemStorePageIDs(t *testing.T) {
	s := NewMemStore(128)
	defer s.Close()
	var want []PageID
	for i := 0; i < 5; i++ {
		id, _ := s.Allocate()
		want = append(want, id)
	}
	s.Free(want[2])
	ids := s.PageIDs()
	if len(ids) != 4 {
		t.Fatalf("PageIDs = %v", ids)
	}
	for i := 1; i < len(ids); i++ {
		if ids[i] <= ids[i-1] {
			t.Fatal("PageIDs not ascending")
		}
	}
}

// TestWritePagesRun writes runs of contiguous pages through each store
// shape the pool writes to: the run lands page for page, counts one
// write per page, and a fault inside it cuts it at the faulty page — at
// the page's start (FaultError) or inside it (FaultTornWrite) — with
// the pages before it written and the pages after it untouched.
func TestWritePagesRun(t *testing.T) {
	const n = 6
	fill := func(ps int, b byte) [][]byte {
		pages := make([][]byte, n)
		for i := range pages {
			pages[i] = bytes.Repeat([]byte{b + byte(i)}, ps)
		}
		return pages
	}
	open := func(t *testing.T) (Store, *FileStore) {
		cs, fs, err := CreateCheckedFileFlags(filepath.Join(t.TempDir(), "run.db"), 256, 0)
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { cs.Close() })
		for i := 0; i < n; i++ {
			if _, err := cs.Allocate(); err != nil {
				t.Fatal(err)
			}
		}
		return cs, fs
	}
	read := func(t *testing.T, st Store, id PageID) []byte {
		buf := make([]byte, st.PageSize())
		if err := st.ReadPage(id, buf); err != nil {
			t.Fatalf("page %d: %v", id, err)
		}
		return buf
	}

	t.Run("whole", func(t *testing.T) {
		for _, st := range []Store{NewMemStore(256), nil} {
			var fs *FileStore
			if st == nil {
				st, fs = open(t)
			} else {
				for i := 0; i < n; i++ {
					st.Allocate()
				}
			}
			pages := fill(st.PageSize(), 1)
			if err := st.WritePages(0, bytes.Join(pages, nil)); err != nil {
				t.Fatal(err)
			}
			for i := range pages {
				if !bytes.Equal(read(t, st, PageID(i)), pages[i]) {
					t.Fatalf("page %d does not read back", i)
				}
			}
			if fs != nil {
				if err := fs.WritePages(PageID(n-1), make([]byte, 2*256)); !errors.Is(err, ErrPageNotFound) {
					t.Fatalf("a run past the last page: %v, want ErrPageNotFound", err)
				}
				if err := fs.WritePages(0, make([]byte, 256+1)); !errors.Is(err, ErrSizeMismatch) {
					t.Fatalf("a run of part of a page: %v, want ErrSizeMismatch", err)
				}
			}
		}
	})

	for name, mode := range map[string]FaultMode{"page-boundary": FaultError, "mid-page": FaultTornWrite} {
		t.Run(name, func(t *testing.T) {
			_, fs := open(t)
			fst := NewFaultStore(fs, 3)
			st, err := NewCheckedStore(fst)
			if err != nil {
				t.Fatal(err)
			}
			old := fill(st.PageSize(), 1)
			if err := st.WritePages(0, bytes.Join(old, nil)); err != nil {
				t.Fatal(err)
			}
			const victim = 3
			fst.Inject(Fault{Op: FaultWrite, Page: victim, Count: 1, Mode: mode})
			if err := st.WritePages(0, bytes.Join(fill(st.PageSize(), 100), nil)); !errors.Is(err, ErrFaultInjected) {
				t.Fatalf("torn run: %v, want ErrFaultInjected", err)
			}
			for i := 0; i < victim; i++ {
				if got := read(t, st, PageID(i)); got[0] != 100+byte(i) {
					t.Fatalf("page %d, before the cut, was not written", i)
				}
			}
			buf := make([]byte, st.PageSize())
			err = st.ReadPage(victim, buf)
			if mode == FaultTornWrite && !errors.Is(err, ErrChecksum) {
				t.Fatalf("the torn page reads %v, want ErrChecksum", err)
			}
			if mode == FaultError && (err != nil || !bytes.Equal(buf, old[victim])) {
				t.Fatalf("the page at the cut changed: %v", err)
			}
			for i := victim + 1; i < n; i++ {
				if !bytes.Equal(read(t, st, PageID(i)), old[i]) {
					t.Fatalf("page %d, after the cut, was written", i)
				}
			}
		})
	}
}
