package storage

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"
)

func walPayload(i int) []byte { return []byte(fmt.Sprintf("record-%04d", i)) }

func TestWALAppendCommitReopen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	w, err := CreateWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	var last uint64
	for i := 0; i < 20; i++ {
		lsn, err := w.Append(WALRecMutation, walPayload(i))
		if err != nil {
			t.Fatal(err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("lsn = %d, want %d", lsn, i+1)
		}
		last = lsn
	}
	if err := w.Commit(last); err != nil {
		t.Fatal(err)
	}
	if got := w.DurableLSN(); got != last {
		t.Fatalf("durable = %d, want %d", got, last)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn {
		t.Fatal("clean log reported torn")
	}
	if len(recs) != 20 {
		t.Fatalf("%d records, want 20", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || r.Type != WALRecMutation || string(r.Payload) != string(walPayload(i)) {
			t.Fatalf("record %d = %+v", i, r)
		}
	}

	w2, err := OpenWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsn, err := w2.Append(WALRecCommit, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 21 {
		t.Fatalf("lsn after reopen = %d, want 21", lsn)
	}
}

func TestWALTornTailTruncatedOnOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	w, err := CreateWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(WALRecMutation, walPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}

	// Tear the last record: chop a few bytes off the segment.
	seg := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(seg, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	recs, torn, err := ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if !torn || len(recs) != 4 {
		t.Fatalf("after tear: %d records, torn=%v; want 4, true", len(recs), torn)
	}

	w2, err := OpenWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	lsn, err := w2.Append(WALRecMutation, walPayload(99))
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 5 {
		t.Fatalf("lsn after torn-tail open = %d, want 5 (torn record discarded)", lsn)
	}
	// The append is buffered until a commit or sync writes it out.
	if err := w2.Sync(); err != nil {
		t.Fatal(err)
	}
	recs, torn, err = ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn || len(recs) != 5 {
		t.Fatalf("after reopen+append: %d records, torn=%v", len(recs), torn)
	}
}

func TestWALCorruptTailTruncatedOnOpen(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	w, err := CreateWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append(WALRecMutation, walPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	seg := filepath.Join(dir, "00000001.wal")
	data, err := os.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	ends := WALRecordEnds(data)
	if len(ends) != 5 {
		t.Fatalf("%d record ends, want 5", len(ends))
	}
	// Flip a payload byte inside record 4 (0-based 3): records 1-3
	// survive, 4 and 5 are cut.
	data[ends[2]+walRecHeaderLen] ^= 0xFF
	if err := os.WriteFile(seg, data, 0o644); err != nil {
		t.Fatal(err)
	}
	w2, err := OpenWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w2.Close()
	recs, _, err := ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 {
		t.Fatalf("%d records survive CRC corruption, want 3", len(recs))
	}
	if lsn, _ := w2.Append(WALRecMutation, nil); lsn != 4 {
		t.Fatalf("next lsn = %d, want 4", lsn)
	}
}

func TestWALRotationAndPrune(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	// Tiny segments force a rotation every couple of records.
	w, err := CreateWAL(dir, SyncGroupCommit, 64)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	var last uint64
	for i := 0; i < 30; i++ {
		last, err = w.Append(WALRecMutation, walPayload(i))
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Commit(last); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 3 {
		t.Fatalf("expected several segments, got %d", len(entries))
	}
	recs, _, err := ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 30 {
		t.Fatalf("%d records across segments, want 30", len(recs))
	}

	// Prune everything before LSN 20: whole segments only, so records
	// >= 20 must all survive and some earlier ones may.
	if err := w.Prune(20); err != nil {
		t.Fatal(err)
	}
	recs, _, err = ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) == 0 || recs[0].LSN > 20 {
		t.Fatalf("prune cut too deep: first surviving lsn %d", recs[0].LSN)
	}
	if recs[len(recs)-1].LSN != 30 {
		t.Fatalf("prune lost the tail: last lsn %d", recs[len(recs)-1].LSN)
	}
	// Appends continue with the same LSN sequence.
	if lsn, _ := w.Append(WALRecMutation, nil); lsn != 31 {
		t.Fatalf("lsn after prune = %d, want 31", lsn)
	}
}

func TestWALResetAdvancesLSN(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	w, err := CreateWAL(dir, SyncNone, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 7; i++ {
		if _, err := w.Append(WALRecMutation, walPayload(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Reset(); err != nil {
		t.Fatal(err)
	}
	recs, _, err := ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 0 {
		t.Fatalf("%d records survive Reset", len(recs))
	}
	lsn, err := w.Append(WALRecMutation, nil)
	if err != nil {
		t.Fatal(err)
	}
	if lsn != 8 {
		t.Fatalf("lsn after Reset = %d, want 8 (monotonic across reset)", lsn)
	}
}

func TestWALGroupCommitConcurrent(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	w, err := CreateWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	errs := make(chan error, writers)
	for i := 0; i < writers; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < perWriter; j++ {
				lsn, err := w.Append(WALRecCommit, walPayload(id*1000+j))
				if err != nil {
					errs <- err
					return
				}
				if err := w.Commit(lsn); err != nil {
					errs <- err
					return
				}
				if w.DurableLSN() < lsn {
					errs <- fmt.Errorf("commit acked before durable: %d < %d", w.DurableLSN(), lsn)
					return
				}
			}
		}(i)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	recs, torn, err := ScanWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if torn || len(recs) != writers*perWriter {
		t.Fatalf("%d records, torn=%v; want %d", len(recs), torn, writers*perWriter)
	}
}

func TestCheckWALDirReportsCommits(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "log.wal")
	w, err := CreateWAL(dir, SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(WALRecMutation, walPayload(i)); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append(WALRecCommit, nil); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	rep, err := CheckWALDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Segments != 1 || rep.Records != 6 || rep.Committed != 3 || rep.Torn {
		t.Fatalf("report = %+v", rep)
	}
	if rep.LastLSN != 6 {
		t.Fatalf("last lsn = %d, want 6", rep.LastLSN)
	}
}

// FuzzScanSegment: any segment image scans without a panic to records
// whose LSNs run on from firstLSN, ending at an offset inside the image;
// rescanning the image cut there yields the same records, untorn.
func FuzzScanSegment(f *testing.F) {
	dir := filepath.Join(f.TempDir(), "seed.wal")
	w, err := CreateWAL(dir, SyncNone, 0)
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append(WALRecMutation, walPayload(i)); err != nil {
			f.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		f.Fatal(err)
	}
	segs, err := listSegments(dir)
	if err != nil || len(segs) != 1 {
		f.Fatalf("seed log: %v segments, %v", len(segs), err)
	}
	seg, err := os.ReadFile(segs[0].path)
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seg, segs[0].firstLSN)
	f.Add(seg[:len(seg)-3], segs[0].firstLSN) // torn tail
	f.Add(seg, segs[0].firstLSN+1)            // LSNs off by one
	f.Add(seg[:walSegHeaderLen-1], uint64(1)) // torn header
	f.Fuzz(func(t *testing.T, data []byte, firstLSN uint64) {
		recs, validEnd, _ := scanSegment(data, firstLSN)
		if validEnd < 0 || validEnd > len(data) {
			t.Fatalf("valid end %d outside a %d-byte image", validEnd, len(data))
		}
		for i, r := range recs {
			if r.LSN != firstLSN+uint64(i) {
				t.Fatalf("record %d has LSN %d, want %d", i, r.LSN, firstLSN+uint64(i))
			}
		}
		again, end, torn := scanSegment(data[:validEnd], firstLSN)
		if torn || end != validEnd || len(again) != len(recs) {
			t.Fatalf("rescan of the valid %d bytes: %d records to %d (torn %v), first scan %d", validEnd, len(again), end, torn, len(recs))
		}
		for i := range recs {
			if again[i].LSN != recs[i].LSN || again[i].Type != recs[i].Type || !bytes.Equal(again[i].Payload, recs[i].Payload) {
				t.Fatalf("rescan record %d: %+v, first scan %+v", i, again[i], recs[i])
			}
		}
	})
}
