package ccam

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"ccam/internal/storage"
)

// walGoldenHash is the SHA-256 of every WAL segment TestWALBytesGolden
// hashes. A change to how the log is written (buffering, chunking, the
// checkpoint trigger) must leave it alone: only a change to what the
// log holds may move it, and such a change says why.
const walGoldenHash = "1247fa94ae5e90aa33ab206a45bb6d2633833ca48f874d699619f7a10b17edc7"

// TestWALBytesGolden pins the log's bytes. A fixed-seed stream of
// second-order 32-op batches runs with the automatic trigger out of
// reach (CheckpointBytes 1<<40) and an explicit Checkpoint every fifth
// batch, so the checkpoint schedule is the test's alone. Before every
// checkpoint and at the end, each segment file in the log directory
// is hashed, name and bytes, in name order: every byte the log ever
// held is hashed at least once, since only a checkpoint prunes. The
// stream is long enough to rotate segments, so the record-by-record
// rotation decision is pinned too.
func TestWALBytesGolden(t *testing.T) {
	o := MinneapolisLikeOpts()
	o.Rows, o.Cols = 40, 40
	g, err := RoadMap(o)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "golden.ccam")
	s, err := Open(Options{
		PageSize: 1024, Seed: 7, Path: path, WAL: true,
		SyncPolicy: SyncNone, CheckpointBytes: 1 << 40,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer s.Close()
	if err := s.Build(g); err != nil {
		t.Fatal(err)
	}
	h := sha256.New()
	segments := map[string]bool{}
	hashLog := func() {
		dir := storage.WALDir(path)
		entries, err := os.ReadDir(dir)
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			data, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			h.Write([]byte(e.Name()))
			h.Write(data)
			segments[e.Name()] = true
		}
	}
	w := newMixedBatcher(g, 7)
	ctx := context.Background()
	for i := 1; i <= 150; i++ {
		if err := s.Apply(ctx, w.batch(32)); err != nil {
			t.Fatalf("batch %d: %v", i, err)
		}
		if i%5 == 0 {
			hashLog()
			if err := s.Checkpoint(); err != nil {
				t.Fatalf("checkpoint after batch %d: %v", i, err)
			}
		}
	}
	hashLog()
	if len(segments) < 3 {
		t.Fatalf("the stream wrote %d segments: too short to pin rotation", len(segments))
	}
	got := hex.EncodeToString(h.Sum(nil))
	if got != walGoldenHash {
		t.Fatalf("log bytes hash %s over %d segments, want %s", got, len(segments), walGoldenHash)
	}
}
