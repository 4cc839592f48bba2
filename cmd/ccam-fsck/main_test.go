package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"ccam"
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
	if err := s.SetEdgeCost(e.From, e.To, 42); err != nil {
		s.Close()
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunWALAware(t *testing.T) {
	path := buildWALTestFile(t)
	code, out := fsck(t, path)
	if code != 0 {
		t.Fatalf("clean WAL-backed file: exit %d\n%s", code, out)
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
	code, out := fsck(t, "-drill", "-seed", "5", "-ops", "8", "-q")
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
