package storage

import (
	"encoding/binary"
	"fmt"
	"sort"
)

// SlottedPage lays variable-length records out in a fixed-size page.
// CCAM node records vary in size (successor- and predecessor-lists grow
// and shrink), so data pages use the classic slotted layout:
//
//	header | record heap (grows up) ... free ... slot directory (grows down)
//
// Header (12 bytes):
//
//	[0:2)  slot count (including tombstoned slots)
//	[2:4)  heap end offset (first free byte after the record heap)
//	[4:6)  live record count
//	[6:8)  reserved
//	[8:12) page tag (owner-defined, e.g. file kind)
//
// Each slot is 4 bytes at the end of the page: offset(2) | length(2).
// A slot with offset 0xFFFF is a tombstone. Records are addressed by
// stable slot numbers; compaction moves bytes, never slot numbers.
type SlottedPage struct {
	buf []byte
}

const (
	slottedHeaderSize = 12
	slotSize          = 4
	tombstoneOffset   = 0xFFFF

	// PerRecordOverhead is the slot-directory cost each stored record
	// adds on top of its payload bytes.
	PerRecordOverhead = slotSize
	// SlottedHeaderOverhead is the fixed page-header cost.
	SlottedHeaderOverhead = slottedHeaderSize
)

// NewSlottedPage wraps buf as a freshly initialized slotted page.
// The buffer must be at least slottedHeaderSize+slotSize bytes.
func NewSlottedPage(buf []byte) *SlottedPage {
	if len(buf) < slottedHeaderSize+slotSize {
		panic(fmt.Sprintf("storage: page buffer too small: %d", len(buf)))
	}
	p := &SlottedPage{buf: buf}
	p.Reset()
	return p
}

// LoadSlottedPage wraps buf, which must already contain a slotted page
// image (e.g. read from a Store). It validates header sanity: the
// record heap must end at or before the start of the slot directory —
// a heap that overlaps the directory would let corrupted slot entries
// alias directory bytes as record contents.
func LoadSlottedPage(buf []byte) (*SlottedPage, error) {
	p, err := ViewSlottedPage(buf)
	if err != nil {
		return nil, err
	}
	return &p, nil
}

// ViewSlottedPage is LoadSlottedPage by value, for read paths that wrap
// a borrowed page image once per page visit and must not allocate.
func ViewSlottedPage(buf []byte) (SlottedPage, error) {
	if len(buf) < slottedHeaderSize {
		return SlottedPage{}, fmt.Errorf("%w: page image of %d bytes is smaller than the header", ErrCorruptedPage, len(buf))
	}
	p := SlottedPage{buf: buf}
	n := int(p.slotCount())
	if n*slotSize > len(buf)-slottedHeaderSize {
		return SlottedPage{}, fmt.Errorf("%w: implausible header (slots=%d size=%d)",
			ErrCorruptedPage, n, len(buf))
	}
	// heapEnd is an absolute offset: it starts at the header size and
	// may grow up to the start of the slot directory, never into it.
	dirStart := len(buf) - n*slotSize
	if int(p.heapEnd()) < slottedHeaderSize || int(p.heapEnd()) > dirStart {
		return SlottedPage{}, fmt.Errorf("%w: heap [%d:%d) overlaps slot directory at %d (slots=%d size=%d)",
			ErrCorruptedPage, slottedHeaderSize, p.heapEnd(), dirStart, n, len(buf))
	}
	return p, nil
}

// Validate deep-checks every structural invariant of the page beyond
// what LoadSlottedPage enforces: each live slot must point inside the
// record heap, live records must not overlap one another, and the live
// count in the header must match the directory. ccam-fsck runs it on
// every data page.
func (p *SlottedPage) Validate() error {
	if _, err := ViewSlottedPage(p.buf); err != nil {
		return err
	}
	n, heapEnd := int(p.slotCount()), int(p.heapEnd())
	type span struct{ slot, off, end int }
	var live []span
	for i := 0; i < n; i++ {
		off, length := p.slot(i)
		if off == tombstoneOffset {
			continue
		}
		if off < slottedHeaderSize || off+length > heapEnd {
			return fmt.Errorf("%w: slot %d record [%d:%d) outside heap [%d:%d)",
				ErrCorruptedPage, i, off, off+length, slottedHeaderSize, heapEnd)
		}
		live = append(live, span{i, off, off + length})
	}
	if p.Len() != len(live) {
		return fmt.Errorf("%w: header live count %d != %d live slots", ErrCorruptedPage, p.Len(), len(live))
	}
	sort.Slice(live, func(a, b int) bool { return live[a].off < live[b].off })
	for i := 1; i < len(live); i++ {
		if live[i].off < live[i-1].end {
			return fmt.Errorf("%w: slots %d and %d overlap at offset %d",
				ErrCorruptedPage, live[i-1].slot, live[i].slot, live[i].off)
		}
	}
	return nil
}

// Reset reinitializes the page to empty.
func (p *SlottedPage) Reset() {
	for i := range p.buf {
		p.buf[i] = 0
	}
	p.setHeapEnd(slottedHeaderSize)
}

// Bytes returns the underlying page image.
func (p *SlottedPage) Bytes() []byte { return p.buf }

// Tag returns the owner-defined page tag.
func (p *SlottedPage) Tag() uint32 { return binary.LittleEndian.Uint32(p.buf[8:12]) }

// SetTag stores an owner-defined page tag.
func (p *SlottedPage) SetTag(t uint32) { binary.LittleEndian.PutUint32(p.buf[8:12], t) }

func (p *SlottedPage) slotCount() uint16 { return binary.LittleEndian.Uint16(p.buf[0:2]) }
func (p *SlottedPage) setSlotCount(n uint16) {
	binary.LittleEndian.PutUint16(p.buf[0:2], n)
}
func (p *SlottedPage) heapEnd() uint16 { return binary.LittleEndian.Uint16(p.buf[2:4]) }
func (p *SlottedPage) setHeapEnd(v int) {
	binary.LittleEndian.PutUint16(p.buf[2:4], uint16(v))
}

// Len returns the number of live records on the page.
func (p *SlottedPage) Len() int { return int(binary.LittleEndian.Uint16(p.buf[4:6])) }
func (p *SlottedPage) setLen(n int) {
	binary.LittleEndian.PutUint16(p.buf[4:6], uint16(n))
}

func (p *SlottedPage) slotPos(slot int) int {
	return len(p.buf) - (slot+1)*slotSize
}

func (p *SlottedPage) slot(slot int) (off, length int) {
	pos := p.slotPos(slot)
	return int(binary.LittleEndian.Uint16(p.buf[pos:])),
		int(binary.LittleEndian.Uint16(p.buf[pos+2:]))
}

func (p *SlottedPage) setSlot(slot, off, length int) {
	pos := p.slotPos(slot)
	binary.LittleEndian.PutUint16(p.buf[pos:], uint16(off))
	binary.LittleEndian.PutUint16(p.buf[pos+2:], uint16(length))
}

// FreeSpace returns the number of bytes available for a new record,
// accounting for the slot directory entry a fresh insert may need and
// assuming compaction (fragmentation does not reduce FreeSpace).
func (p *SlottedPage) FreeSpace() int {
	used := slottedHeaderSize + p.liveBytes() + int(p.slotCount())*slotSize
	free := len(p.buf) - used - slotSize // reserve room for one new slot
	if free < 0 {
		return 0
	}
	return free
}

// UsedBytes returns the bytes occupied by live records (excluding
// header and slot directory).
func (p *SlottedPage) UsedBytes() int { return p.liveBytes() }

func (p *SlottedPage) liveBytes() int {
	total := 0
	for i := 0; i < int(p.slotCount()); i++ {
		off, length := p.slot(i)
		if off != tombstoneOffset {
			total += length
		}
	}
	return total
}

// MaxSlots bounds the slot numbers of a pageSize-byte page whose
// records are each at least minRecord bytes: every slot number is
// below it. Insert appends a slot only when every slot is live (it
// takes the first tombstone otherwise) and Delete trims trailing
// tombstones, so the directory is never longer than the most records
// the page can hold at once.
func MaxSlots(pageSize, minRecord int) int {
	return (pageSize - slottedHeaderSize) / (minRecord + slotSize)
}

// Capacity returns the maximum record payload a single empty page can
// hold (one record, one slot).
func (p *SlottedPage) Capacity() int {
	return len(p.buf) - slottedHeaderSize - slotSize
}

// Insert stores rec and returns its slot number. It compacts the page
// if contiguous free space is insufficient but total free space is not.
func (p *SlottedPage) Insert(rec []byte) (int, error) {
	if len(rec) > p.Capacity() {
		return 0, fmt.Errorf("%w: %d > %d", ErrRecordTooBig, len(rec), p.Capacity())
	}
	// Reuse a tombstoned slot when available; otherwise a new slot.
	slot := -1
	n := int(p.slotCount())
	for i := 0; i < n; i++ {
		if off, _ := p.slot(i); off == tombstoneOffset {
			slot = i
			break
		}
	}
	needSlot := 0
	if slot == -1 {
		needSlot = slotSize
	}
	dirStart := len(p.buf) - n*slotSize
	contiguous := dirStart - needSlot - int(p.heapEnd())
	if contiguous < len(rec) {
		used := slottedHeaderSize + p.liveBytes() + n*slotSize + needSlot
		if len(p.buf)-used < len(rec) {
			return 0, fmt.Errorf("%w: need %d, have %d", ErrPageFull, len(rec), len(p.buf)-used)
		}
		p.compact()
		dirStart = len(p.buf) - n*slotSize
		contiguous = dirStart - needSlot - int(p.heapEnd())
		if contiguous < len(rec) {
			return 0, fmt.Errorf("%w after compaction: need %d, have %d", ErrPageFull, len(rec), contiguous)
		}
	}
	off := int(p.heapEnd())
	copy(p.buf[off:], rec)
	p.setHeapEnd(off + len(rec))
	if slot == -1 {
		slot = n
		p.setSlotCount(uint16(n + 1))
	}
	p.setSlot(slot, off, len(rec))
	p.setLen(p.Len() + 1)
	return slot, nil
}

// Get returns the record stored in slot. The returned slice aliases the
// page buffer; callers must copy before the page is modified or
// recycled.
func (p *SlottedPage) Get(slot int) ([]byte, error) {
	rec, live, err := p.Record(slot)
	if err == nil && !live {
		err = fmt.Errorf("%w: slot %d is deleted", ErrSlotNotFound, slot)
	}
	return rec, err
}

// NumSlots returns the length of the slot directory, tombstones
// included. Looping slot numbers below it through Record visits every
// record without materializing the Slots slice.
func (p *SlottedPage) NumSlots() int { return int(p.slotCount()) }

// Record is Get for directory walks: a tombstoned slot reports
// live=false instead of an error.
func (p *SlottedPage) Record(slot int) (rec []byte, live bool, err error) {
	if slot < 0 || slot >= int(p.slotCount()) {
		return nil, false, fmt.Errorf("%w: slot %d of %d", ErrSlotNotFound, slot, p.slotCount())
	}
	off, length := p.slot(slot)
	if off == tombstoneOffset {
		return nil, false, nil
	}
	// A live record must lie entirely within the record heap: an
	// offset below the header or an end past heapEnd would alias
	// header or slot-directory bytes as record contents.
	if off < slottedHeaderSize || off+length > int(p.heapEnd()) {
		return nil, false, fmt.Errorf("%w: slot %d record [%d:%d) outside heap [%d:%d)",
			ErrCorruptedPage, slot, off, off+length, slottedHeaderSize, p.heapEnd())
	}
	return p.buf[off : off+length], true, nil
}

// Delete tombstones slot. The space is reclaimed lazily by compaction.
func (p *SlottedPage) Delete(slot int) error {
	if slot < 0 || slot >= int(p.slotCount()) {
		return fmt.Errorf("%w: slot %d of %d", ErrSlotNotFound, slot, p.slotCount())
	}
	if off, _ := p.slot(slot); off == tombstoneOffset {
		return fmt.Errorf("%w: slot %d already deleted", ErrSlotNotFound, slot)
	}
	p.setSlot(slot, tombstoneOffset, 0)
	p.setLen(p.Len() - 1)
	// Trim trailing tombstones so slot numbers stay dense-ish.
	n := int(p.slotCount())
	for n > 0 {
		if off, _ := p.slot(n - 1); off != tombstoneOffset {
			break
		}
		n--
	}
	p.setSlotCount(uint16(n))
	return nil
}

// Update replaces the record in slot with rec, growing or shrinking in
// place. It fails with ErrPageFull if the page cannot hold the new
// size even after compaction.
func (p *SlottedPage) Update(slot int, rec []byte) error {
	if slot < 0 || slot >= int(p.slotCount()) {
		return fmt.Errorf("%w: slot %d of %d", ErrSlotNotFound, slot, p.slotCount())
	}
	off, length := p.slot(slot)
	if off == tombstoneOffset {
		return fmt.Errorf("%w: slot %d is deleted", ErrSlotNotFound, slot)
	}
	if len(rec) <= length {
		copy(p.buf[off:], rec)
		p.setSlot(slot, off, len(rec))
		return nil
	}
	// Grow: check total free space (current record's bytes count as free).
	n := int(p.slotCount())
	used := slottedHeaderSize + p.liveBytes() - length + n*slotSize
	if len(p.buf)-used < len(rec) {
		return fmt.Errorf("%w: update needs %d, have %d", ErrPageFull, len(rec), len(p.buf)-used)
	}
	// Tombstone, compact if needed, re-insert at heap end, keep slot.
	p.setSlot(slot, tombstoneOffset, 0)
	dirStart := len(p.buf) - n*slotSize
	if dirStart-int(p.heapEnd()) < len(rec) {
		p.compact()
	}
	newOff := int(p.heapEnd())
	copy(p.buf[newOff:], rec)
	p.setHeapEnd(newOff + len(rec))
	p.setSlot(slot, newOff, len(rec))
	return nil
}

// Slots returns the live slot numbers in ascending order.
func (p *SlottedPage) Slots() []int {
	var out []int
	for i := 0; i < int(p.slotCount()); i++ {
		if off, _ := p.slot(i); off != tombstoneOffset {
			out = append(out, i)
		}
	}
	return out
}

// compact rewrites the record heap contiguously, preserving slot
// numbers.
func (p *SlottedPage) compact() {
	type entry struct{ slot, off, length int }
	var live []entry
	for i := 0; i < int(p.slotCount()); i++ {
		off, length := p.slot(i)
		if off != tombstoneOffset {
			live = append(live, entry{i, off, length})
		}
	}
	sort.Slice(live, func(a, b int) bool { return live[a].off < live[b].off })
	w := slottedHeaderSize
	for _, e := range live {
		if e.off != w {
			copy(p.buf[w:w+e.length], p.buf[e.off:e.off+e.length])
		}
		p.setSlot(e.slot, w, e.length)
		w += e.length
	}
	p.setHeapEnd(w)
}
