package storage

import (
	"encoding/binary"
	"errors"
	"hash/crc32"
	"testing"
)

// FuzzParseHeader: any header image parses without a panic; an accepted
// one has a plausible page size and no more free pages than allocated
// ones, and encodes back to a header that parses to the same value.
// Every input is also parsed with its checksum re-stamped, so the field
// checks behind the CRC are reached too.
func FuzzParseHeader(f *testing.F) {
	f.Add(encodeHeader(parsedHeader{pageSize: 2048, next: 10, nfree: 2, freeHead: 7, flags: FlagWAL | FlagCheckedPages, gen: 3, appliedLSN: 99}))
	f.Add(encodeHeader(parsedHeader{pageSize: 64, freeHead: InvalidPageID}))
	f.Add(encodeHeader(parsedHeader{pageSize: 63}))            // implausible page size
	f.Add(encodeHeader(parsedHeader{pageSize: 512, nfree: 1})) // free count past allocation
	f.Add(encodeHeader(parsedHeader{pageSize: 512})[:fsHeaderLen-1])
	f.Fuzz(func(t *testing.T, hdr []byte) {
		check := func(hdr []byte) {
			ph, err := parseHeader(hdr)
			if err != nil {
				return
			}
			if ph.pageSize < 64 || ph.nfree > int(ph.next) {
				t.Fatalf("accepted header %+v", ph)
			}
			again, err := parseHeader(encodeHeader(ph))
			if err != nil || again != ph {
				t.Fatalf("re-encoded header parses to %+v, %v; want %+v", again, err, ph)
			}
		}
		check(hdr)
		if len(hdr) >= fsHeaderLen {
			stamped := append([]byte(nil), hdr...)
			binary.LittleEndian.PutUint32(stamped[44:48], crc32.Checksum(stamped[0:44], fsCRCTable))
			check(stamped)
		}
	})
}

// FuzzLastCheckpoint: a checkpoint whose page-image, alloc-state and
// end-record payloads are arbitrary bytes is decoded without a panic,
// and every failure wraps ErrWALCorrupt. An accepted alloc state holds
// exactly the free chain its length field announces.
func FuzzLastCheckpoint(f *testing.F) {
	f.Add(EncodeWALPageImage(3, []byte("page")), EncodeWALAllocState(2056, FlagCheckedPages, 4, 9, []PageID{5, 2}), EncodeWALCheckpointEnd(1))
	f.Add([]byte{1, 2, 3}, EncodeWALAllocState(512, 0, 0, 0, nil), EncodeWALCheckpointEnd(1))                 // short image
	f.Add(EncodeWALPageImage(0, nil), EncodeWALAllocState(512, 0, 0, 0, nil)[:23], EncodeWALCheckpointEnd(1)) // short alloc state
	f.Add(EncodeWALPageImage(0, nil), EncodeWALAllocState(512, 0, 0, 1, []PageID{0})[:27], EncodeWALCheckpointEnd(1))
	f.Add(EncodeWALPageImage(0, nil), EncodeWALAllocState(512, 0, 0, 0, nil), EncodeWALCheckpointEnd(0)) // body before the log
	f.Add(EncodeWALPageImage(0, nil), EncodeWALAllocState(512, 0, 0, 0, nil), EncodeWALCheckpointEnd(3)) // body skipped
	f.Add(EncodeWALPageImage(0, nil), EncodeWALAllocState(512, 0, 0, 0, nil), []byte{1})
	f.Fuzz(func(t *testing.T, image, alloc, end []byte) {
		ck, err := LastCheckpoint([]WALRecord{
			{LSN: 1, Type: WALRecPageImage, Payload: image},
			{LSN: 2, Type: WALRecAllocState, Payload: alloc},
			{LSN: 3, Type: WALRecCheckpointEnd, Payload: end},
		})
		if err != nil {
			if !errors.Is(err, ErrWALCorrupt) {
				t.Fatalf("error %v does not wrap ErrWALCorrupt", err)
			}
			return
		}
		if ck.EndLSN != 3 || len(alloc) != 24+4*len(ck.FreeChain) {
			t.Fatalf("accepted checkpoint %+v from a %d-byte alloc state", ck, len(alloc))
		}
	})
}
