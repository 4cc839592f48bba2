package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"ccam"
	"ccam/internal/netfile"
	"ccam/internal/storage"
)

// buildTestFile creates a small file-backed store and returns its path.
func buildTestFile(t *testing.T) string {
	t.Helper()
	opts := ccam.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 10, 10
	g, err := ccam.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := ccam.Open(ccam.Options{PageSize: 1024, Path: path, Seed: 11})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		s.Close()
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// fsck runs the command's entry point and returns (exit code, stdout).
func fsck(t *testing.T, args ...string) (int, string) {
	t.Helper()
	var out, errw bytes.Buffer
	code := run(args, &out, &errw)
	return code, out.String() + errw.String()
}

func TestRunCleanCorruptRepairCycle(t *testing.T) {
	path := buildTestFile(t)

	// A pristine file verifies clean with exit 0.
	code, out := fsck(t, path)
	if code != 0 {
		t.Fatalf("clean file: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "clean") {
		t.Fatalf("no clean verdict in output:\n%s", out)
	}

	// -flip corrupts exactly one page...
	code, out = fsck(t, "-flip", "2:801", path)
	if code != 0 {
		t.Fatalf("-flip: exit %d\n%s", code, out)
	}

	// ...which verification then locates, with exit 1.
	code, out = fsck(t, path)
	if code != 1 {
		t.Fatalf("corrupted file: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "page 2") || !strings.Contains(out, "DAMAGED") {
		t.Fatalf("damage not located in output:\n%s", out)
	}

	// -repair quarantines it and re-verifies clean (exit 0), and a
	// following plain check agrees.
	code, out = fsck(t, "-repair", path)
	if code != 0 {
		t.Fatalf("-repair: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "quarantined page 2") {
		t.Fatalf("no quarantine action reported:\n%s", out)
	}
	if code, out = fsck(t, path); code != 0 {
		t.Fatalf("post-repair check: exit %d\n%s", code, out)
	}
	if _, err := ccam.OpenPath(path, ccam.Options{}); err != nil {
		t.Fatalf("OpenPath after repair: %v", err)
	}
}

func TestRunQuiet(t *testing.T) {
	path := buildTestFile(t)
	code, out := fsck(t, "-q", path)
	if code != 0 {
		t.Fatalf("exit %d\n%s", code, out)
	}
	if strings.Contains(out, "page size") {
		t.Fatalf("-q still printed the report:\n%s", out)
	}
}

func TestRunUsageErrors(t *testing.T) {
	cases := [][]string{
		{},                          // no file
		{"a.ccam", "b.ccam"},        // too many files
		{"-flip", "nope", "a.ccam"}, // malformed flip spec
		{filepath.Join(t.TempDir(), "missing.ccam")}, // unreadable file
	}
	for _, args := range cases {
		if code, _ := fsck(t, args...); code != 2 {
			t.Fatalf("run(%v) exit = %d, want 2", args, code)
		}
	}
}

// buildWALTestFile creates a WAL-backed store, logs a mutation, closes
// cleanly (checkpointed, pruned log) and returns the data file path.
func buildWALTestFile(t *testing.T) string {
	t.Helper()
	opts := ccam.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 8, 8
	g, err := ccam.RoadMap(opts)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "net.ccam")
	s, err := ccam.Open(ccam.Options{PageSize: 1024, Path: path, Seed: 11, WAL: true})
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Build(g); err != nil {
		s.Close()
		t.Fatal(err)
	}
	e := g.Edges()[0]
	if err := s.Apply(context.Background(), new(ccam.Batch).SetEdgeCost(e.From, e.To, 42)); err != nil {
		s.Close()
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestRunWALAware: a clean WAL-backed file checks clean, its log is
// reported, and the check — whose logical pass reopens a copy, replaying
// the log and checkpointing on close — leaves the file and its WAL
// directory byte for byte as they were. Without its log the file is
// damaged.
func TestRunWALAware(t *testing.T) {
	path := buildWALTestFile(t)
	hash := func() [32]byte {
		h := sha256.New()
		names, _ := filepath.Glob(filepath.Join(storage.WALDir(path), "*"))
		for _, name := range append(names, path) {
			b, err := os.ReadFile(name)
			if err != nil {
				t.Fatal(err)
			}
			fmt.Fprintf(h, "%s %d\n", name, len(b))
			h.Write(b)
		}
		return [32]byte(h.Sum(nil))
	}
	before := hash()
	code, out := fsck(t, path)
	if code != 0 {
		t.Fatalf("clean WAL-backed file: exit %d\n%s", code, out)
	}
	if hash() != before {
		t.Fatal("the check changed the file or its WAL directory")
	}
	for _, want := range []string{"wal:", "segments", "checkpoint", "clean"} {
		if !strings.Contains(out, want) {
			t.Fatalf("output missing %q:\n%s", want, out)
		}
	}

	// Removing the log from under a WAL-flagged file is damage.
	if err := os.RemoveAll(storage.WALDir(path)); err != nil {
		t.Fatal(err)
	}
	code, out = fsck(t, path)
	if code != 1 {
		t.Fatalf("missing WAL dir: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "missing") {
		t.Fatalf("missing-log damage not reported:\n%s", out)
	}
}

// TestRunSparesImagedPage: on a WAL-backed file, a page that fails its
// checksum but has an image in the log's last complete checkpoint is
// what a torn checkpoint flush leaves, and a reopen writes the image
// back: ccam-fsck reports it restored from the log, the file clean, and
// -repair leaves the page in place. A page with no image is damage.
func TestRunSparesImagedPage(t *testing.T) {
	path := buildWALTestFile(t)
	recs, _, err := storage.ScanWALDir(storage.WALDir(path))
	if err != nil {
		t.Fatal(err)
	}
	ck, err := storage.LastCheckpoint(recs)
	if err != nil || ck == nil || len(ck.Images) == 0 {
		t.Fatalf("no checkpoint images in the log: %v, %v", ck, err)
	}
	imaged := map[storage.PageID]bool{}
	for _, img := range ck.Images {
		imaged[img.ID] = true
	}
	victim := ck.Images[0].ID
	if err := storage.CorruptPage(path, victim, 100); err != nil {
		t.Fatal(err)
	}
	restored := fmt.Sprintf("restored from log: page %d", victim)
	for _, args := range [][]string{{path}, {"-repair", path}, {path}} {
		code, out := fsck(t, args...)
		if code != 0 || !strings.Contains(out, restored) || strings.Contains(out, "quarantined") {
			t.Fatalf("run(%v) with page %d torn: exit %d, want 0, %q and no quarantine\n%s", args, victim, code, restored, out)
		}
	}
	for pid := storage.PageID(0); pid < ck.Next; pid++ {
		if imaged[pid] || slices.Contains(ck.FreeChain, pid) {
			continue
		}
		if err := storage.CorruptPage(path, pid, 100); err != nil {
			t.Fatal(err)
		}
		if code, out := fsck(t, path); code != 1 || !strings.Contains(out, fmt.Sprintf("damaged: page %d", pid)) {
			t.Fatalf("page %d, which has no image, torn: exit %d, want 1 and it named damaged\n%s", pid, code, out)
		}
		return
	}
	t.Log("every live page has a checkpoint image; the damaged case is not exercised")
}

func TestRunWALDirWithoutFlag(t *testing.T) {
	// A WAL directory beside a non-WAL file is flagged: its commits
	// would never be replayed.
	path := buildTestFile(t)
	dir := storage.WALDir(path)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	w, err := storage.CreateWAL(dir, storage.SyncGroupCommit, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append(storage.WALRecCommit, nil); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	code, out := fsck(t, path)
	if code != 1 {
		t.Fatalf("unflagged WAL dir: exit %d, want 1\n%s", code, out)
	}
	if !strings.Contains(out, "does not flag a WAL") {
		t.Fatalf("mismatch not reported:\n%s", out)
	}
}

func TestRunDrill(t *testing.T) {
	code, out := fsck(t, "-drill", "-seed", "5", "-ops", "60", "-q")
	if code != 0 {
		t.Fatalf("drill: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "drill PASS") {
		t.Fatalf("drill output:\n%s", out)
	}
}

func TestRunSelftest(t *testing.T) {
	code, out := fsck(t, "-selftest")
	if code != 0 {
		t.Fatalf("selftest: exit %d\n%s", code, out)
	}
	if !strings.Contains(out, "selftest PASS") {
		t.Fatalf("selftest output:\n%s", out)
	}
}

// TestRunLogicalDamage: a file whose pages are each physically sound —
// checksums and slotted structure intact — but whose last page holds a
// copy of a node of the first page, or a predecessor entry naming it
// that its successor-list does not match, is DAMAGED (exit 1) with the
// last page named, and prints no "records:" line.
func TestRunLogicalDamage(t *testing.T) {
	for name, edit := range map[string]func(sp *storage.SlottedPage, first []byte) error{
		"stored twice": func(sp *storage.SlottedPage, first []byte) error {
			_, err := sp.Insert(first)
			return err
		},
		"one-sided predecessor": func(sp *storage.SlottedPage, first []byte) error {
			raw, _ := sp.Get(0)
			rec, err := netfile.DecodeRecord(raw)
			if err == nil {
				stranger, _ := netfile.RecordID(first)
				rec.AddPred(stranger)
				err = sp.Update(0, netfile.EncodeRecord(rec))
			}
			return err
		},
	} {
		t.Run(name, func(t *testing.T) {
			path := buildTestFile(t)
			st, fs, err := storage.OpenPageFile(path)
			if err != nil {
				t.Fatal(err)
			}
			pids := st.PageIDs()
			page := func(pid storage.PageID) *storage.SlottedPage {
				buf := make([]byte, st.PageSize())
				if err := st.ReadPage(pid, buf); err != nil {
					t.Fatal(err)
				}
				sp, err := storage.LoadSlottedPage(buf)
				if err != nil {
					t.Fatal(err)
				}
				return sp
			}
			raw, err := page(pids[0]).Get(0)
			if err != nil {
				t.Fatal(err)
			}
			last := page(pids[len(pids)-1])
			if err := edit(last, raw); err != nil {
				t.Fatal(err)
			}
			if err := st.WritePage(pids[len(pids)-1], last.Bytes()); err != nil {
				t.Fatal(err)
			}
			if err := fs.Close(); err != nil {
				t.Fatal(err)
			}
			code, out := fsck(t, path)
			if want := fmt.Sprintf("page %d", pids[len(pids)-1]); code != 1 || !strings.Contains(out, "DAMAGED") || !strings.Contains(out, want) || strings.Contains(out, "records:") {
				t.Fatalf("exit %d, want 1, DAMAGED, %s named and no records line:\n%s", code, want, out)
			}
		})
	}
}
