package storage

import (
	"encoding/binary"
	"fmt"
	"os"
)

// This file holds the checkpoint codec and the raw restore step of
// crash recovery. Because the buffer pool runs no-steal and page frees
// are deferred to checkpoints, every physical write to the data file
// between checkpoints is allocator noise; recovery therefore rewrites
// the data file from the WAL's last complete checkpoint (page images,
// free chain, header) before redoing committed logical records.

// WALPageImage is one checkpointed page: the logical payload as the
// buffer pool sees it (checksum trailers are reapplied on restore).
type WALPageImage struct {
	ID      PageID
	Payload []byte
}

// WALCheckpoint is a decoded checkpoint: the page images and allocator
// snapshot between its start and end records.
type WALCheckpoint struct {
	StartLSN uint64
	EndLSN   uint64
	// PhysPageSize is the physical page size of the data file
	// (including any checksum trailer).
	PhysPageSize int
	Flags        uint32
	Gen          uint64
	Next         PageID
	// FreeChain lists the free pages in chain order (head first).
	FreeChain []PageID
	Images    []WALPageImage
}

// EncodeWALPageImage builds a WALRecPageImage payload.
func EncodeWALPageImage(id PageID, payload []byte) []byte {
	dst := make([]byte, WALPageImageLen(payload))
	PutWALPageImage(dst, id, payload)
	return dst
}

// WALPageImageLen is the length of the WALRecPageImage payload holding
// the page image payload.
func WALPageImageLen(payload []byte) int { return 4 + len(payload) }

// PutWALPageImage encodes a WALRecPageImage payload into dst, which is
// WALPageImageLen(payload) long: a checkpoint encodes each image
// straight into the log's buffer with WAL.AppendWith.
func PutWALPageImage(dst []byte, id PageID, payload []byte) {
	binary.LittleEndian.PutUint32(dst[0:4], uint32(id))
	copy(dst[4:], payload)
}

// DecodeWALPageImage parses a WALRecPageImage payload.
func DecodeWALPageImage(b []byte) (WALPageImage, error) {
	if len(b) < 4 {
		return WALPageImage{}, fmt.Errorf("%w: page image record too short", ErrWALCorrupt)
	}
	return WALPageImage{ID: PageID(binary.LittleEndian.Uint32(b[0:4])), Payload: b[4:]}, nil
}

// EncodeWALAllocState builds a WALRecAllocState payload.
func EncodeWALAllocState(physPageSize int, flags uint32, gen uint64, next PageID, chain []PageID) []byte {
	buf := make([]byte, 24+4*len(chain))
	binary.LittleEndian.PutUint32(buf[0:4], uint32(physPageSize))
	binary.LittleEndian.PutUint32(buf[4:8], flags)
	binary.LittleEndian.PutUint64(buf[8:16], gen)
	binary.LittleEndian.PutUint32(buf[16:20], uint32(next))
	binary.LittleEndian.PutUint32(buf[20:24], uint32(len(chain)))
	for i, id := range chain {
		binary.LittleEndian.PutUint32(buf[24+4*i:], uint32(id))
	}
	return buf
}

func decodeWALAllocState(b []byte, ck *WALCheckpoint) error {
	if len(b) < 24 {
		return fmt.Errorf("%w: alloc-state record too short", ErrWALCorrupt)
	}
	ck.PhysPageSize = int(binary.LittleEndian.Uint32(b[0:4]))
	ck.Flags = binary.LittleEndian.Uint32(b[4:8])
	ck.Gen = binary.LittleEndian.Uint64(b[8:16])
	ck.Next = PageID(binary.LittleEndian.Uint32(b[16:20]))
	n := int(binary.LittleEndian.Uint32(b[20:24]))
	if len(b) != 24+4*n {
		return fmt.Errorf("%w: alloc-state chain length mismatch", ErrWALCorrupt)
	}
	ck.FreeChain = make([]PageID, n)
	for i := 0; i < n; i++ {
		ck.FreeChain[i] = PageID(binary.LittleEndian.Uint32(b[24+4*i:]))
	}
	return nil
}

// EncodeWALCheckpointEnd builds a WALRecCheckpointEnd payload.
func EncodeWALCheckpointEnd(startLSN uint64) []byte {
	var buf [8]byte
	binary.LittleEndian.PutUint64(buf[:], startLSN)
	return buf[:]
}

// LastCheckpoint extracts the last complete checkpoint from a record
// stream (as returned by ScanWALDir). It returns nil when no complete
// checkpoint exists. An end record whose body records were pruned away
// is an error: the log violated its retention invariant.
func LastCheckpoint(recs []WALRecord) (*WALCheckpoint, error) {
	end := -1
	for i := len(recs) - 1; i >= 0; i-- {
		if recs[i].Type == WALRecCheckpointEnd {
			end = i
			break
		}
	}
	if end < 0 {
		return nil, nil
	}
	if len(recs[end].Payload) < 8 {
		return nil, fmt.Errorf("%w: checkpoint-end record too short", ErrWALCorrupt)
	}
	ck := &WALCheckpoint{
		StartLSN: binary.LittleEndian.Uint64(recs[end].Payload[0:8]),
		EndLSN:   recs[end].LSN,
	}
	if len(recs) == 0 || recs[0].LSN > ck.StartLSN {
		return nil, fmt.Errorf("%w: checkpoint body before retained log (start lsn %d, log begins at %d)",
			ErrWALCorrupt, ck.StartLSN, recs[0].LSN)
	}
	haveAlloc := false
	for _, r := range recs[:end] {
		if r.LSN < ck.StartLSN {
			continue
		}
		switch r.Type {
		case WALRecPageImage:
			img, err := DecodeWALPageImage(r.Payload)
			if err != nil {
				return nil, err
			}
			ck.Images = append(ck.Images, img)
		case WALRecAllocState:
			if err := decodeWALAllocState(r.Payload, ck); err != nil {
				return nil, err
			}
			haveAlloc = true
		}
	}
	if !haveAlloc {
		return nil, fmt.Errorf("%w: checkpoint at lsn %d has no alloc-state record", ErrWALCorrupt, ck.EndLSN)
	}
	return ck, nil
}

// WALReport summarizes a read-only WAL directory check for ccam-fsck.
type WALReport struct {
	Dir      string
	Segments int
	Records  int
	// LastLSN is the highest valid LSN in the log (0 when empty).
	LastLSN uint64
	// Torn reports a log ending mid-record — the normal signature of
	// a crash, repaired (truncated) on the next open.
	Torn bool
	// CheckpointLSN is the end LSN of the last complete checkpoint
	// (0 when the log holds none).
	CheckpointLSN uint64
	// Committed counts commit records past the last checkpoint —
	// batches a reopen would replay.
	Committed int
	// Err is a structural failure beyond a torn tail (e.g. a
	// checkpoint whose body was pruned away).
	Err error
}

// CheckWALDir inspects a WAL directory without modifying it.
func CheckWALDir(dir string) (*WALReport, error) {
	rep := &WALReport{Dir: dir}
	segs, err := listSegments(dir)
	if err != nil {
		return nil, err
	}
	rep.Segments = len(segs)
	recs, torn, err := ScanWALDir(dir)
	if err != nil {
		return nil, err
	}
	rep.Records = len(recs)
	rep.Torn = torn
	if len(recs) > 0 {
		rep.LastLSN = recs[len(recs)-1].LSN
	}
	ck, ckErr := LastCheckpoint(recs)
	if ckErr != nil {
		rep.Err = ckErr
		return rep, nil
	}
	after := uint64(0)
	if ck != nil {
		rep.CheckpointLSN = ck.EndLSN
		after = ck.EndLSN
	}
	for _, r := range recs {
		if r.Type == WALRecCommit && r.LSN > after {
			rep.Committed++
		}
	}
	return rep, nil
}

// RecoverFile rewrites the data file at path from a checkpoint: every
// imaged page (with a fresh checksum trailer when the file is
// checked), a chain entry in every free page, and a rebuilt header,
// then fsyncs. Any garbage the crash left between checkpoints —
// zero-filled allocations, a torn header, half-executed frees — is
// overwritten wholesale.
func RecoverFile(path string, ck *WALCheckpoint) error {
	if ck.PhysPageSize < 64 {
		return fmt.Errorf("%w: checkpoint page size %d implausible", ErrWALCorrupt, ck.PhysPageSize)
	}
	f, err := os.OpenFile(path, os.O_RDWR, 0o644)
	if err != nil {
		return fmt.Errorf("storage: recover open: %w", err)
	}
	defer f.Close()
	checked := ck.Flags&FlagCheckedPages != 0
	logical := ck.PhysPageSize
	if checked {
		logical -= ChecksumTrailerLen
	}
	offset := func(id PageID) int64 { return int64(ck.PhysPageSize) * (int64(id) + 1) }
	raw := make([]byte, ck.PhysPageSize)
	for _, img := range ck.Images {
		if len(img.Payload) != logical {
			return fmt.Errorf("%w: page %d image is %d bytes, want %d",
				ErrWALCorrupt, img.ID, len(img.Payload), logical)
		}
		copy(raw, img.Payload)
		if checked {
			trailer := raw[logical:]
			binary.LittleEndian.PutUint32(trailer[0:4], pageCRC(img.Payload, img.ID))
			binary.LittleEndian.PutUint32(trailer[4:8], checksumTrailerMagic)
		}
		if _, err := f.WriteAt(raw, offset(img.ID)); err != nil {
			return fmt.Errorf("storage: recover page %d: %w", img.ID, err)
		}
	}
	// Lay the free chain back down: each free page's first 8 bytes
	// point at the next.
	var entry [8]byte
	for i, id := range ck.FreeChain {
		next := InvalidPageID
		if i+1 < len(ck.FreeChain) {
			next = ck.FreeChain[i+1]
		}
		binary.LittleEndian.PutUint32(entry[0:4], freedMagic)
		binary.LittleEndian.PutUint32(entry[4:8], uint32(next))
		if _, err := f.WriteAt(entry[:], offset(id)); err != nil {
			return fmt.Errorf("storage: recover free chain page %d: %w", id, err)
		}
	}
	freeHead := InvalidPageID
	if len(ck.FreeChain) > 0 {
		freeHead = ck.FreeChain[0]
	}
	hdr := encodeHeader(parsedHeader{
		pageSize:   ck.PhysPageSize,
		next:       ck.Next,
		nfree:      len(ck.FreeChain),
		freeHead:   freeHead,
		flags:      ck.Flags,
		gen:        ck.Gen + 1,
		appliedLSN: ck.EndLSN,
	})
	if _, err := f.WriteAt(hdr, 0); err != nil {
		return fmt.Errorf("storage: recover header: %w", err)
	}
	if err := f.Sync(); err != nil {
		return fmt.Errorf("storage: recover sync: %w", err)
	}
	return nil
}
