// Command ccam-fsck verifies and repairs CCAM page files.
//
// It checks, offline, every durable invariant of a file created with
// ccam.Open(Options{Path: ...}): the checksummed header (magic, page
// size, generation, CRC), the durable free-page chain, per-page CRC32
// trailers and slotted-page structure; then, on a physically clean
// file, what a reopen would serve: a scratch copy of the file and its
// log is opened and passes Store.Verify — each node stored once,
// successor- and predecessor-lists that agree, indexes and PAG summary
// that match the pages. Damage is reported per page; with -repair,
// damaged pages are quarantined onto the free list, and the list
// entries that name their records are dropped, so ccam.OpenPath opens
// the surviving records instead of failing the whole file.
//
// WAL-backed files (Options.WAL) are checked end to end: the sibling
// <file>.wal directory's segments are scanned for structural damage,
// the last complete checkpoint is located, and the committed batches a
// reopen would replay are counted. A torn log tail is reported as the
// (benign) crash signature it is, not as damage, and so is a page that
// fails its checksum but holds an image in the log's last complete
// checkpoint (a checkpoint flush torn mid-page): a reopen restores it,
// so it is reported as restored from the log and -repair leaves it in
// place. A header that flags a WAL whose directory is missing is
// damage — the committed tail is gone.
//
// Usage:
//
//	ccam-fsck file.ccam              # verify file + WAL, report damage
//	ccam-fsck -repair file.ccam      # verify, quarantine damage, re-verify
//	ccam-fsck -flip 3:17 file.ccam   # test helper: flip bit 17 of page 3
//	ccam-fsck -selftest              # end-to-end smoke test (used by CI)
//	ccam-fsck -drill -seed 11        # WAL crash drill: crash at every log
//	                                 # record boundary, verify recovery
//
// Exit status: 0 clean, 1 damage found (or left) or drill failure, 2
// usage or I/O error.
package main

import (
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"

	"ccam"
	"ccam/internal/netfile"
	"ccam/internal/storage"
	"ccam/internal/waldrill"
)

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, out, errw io.Writer) int {
	fs := flag.NewFlagSet("ccam-fsck", flag.ContinueOnError)
	fs.SetOutput(errw)
	repair := fs.Bool("repair", false, "quarantine damaged pages so the file opens cleanly")
	flip := fs.String("flip", "", "test helper: flip one bit, as page:bit (e.g. 3:17), then exit")
	selftest := fs.Bool("selftest", false, "run an end-to-end create/corrupt/detect/repair cycle in a temp dir")
	drill := fs.Bool("drill", false, "run the WAL crash drill in a temp dir: crash at every log record boundary (and torn mid-record), verify exact recovery")
	seed := fs.Int64("seed", 11, "with -drill: seed for the road map and mutation stream")
	ops := fs.Int("ops", 60, "with -drill: minimum mutation ops in the drilled batch stream")
	quiet := fs.Bool("q", false, "print only the verdict line")
	if err := fs.Parse(args); err != nil {
		return 2
	}

	if *selftest {
		if err := runSelftest(out); err != nil {
			fmt.Fprintln(errw, "ccam-fsck: selftest FAILED:", err)
			return 2
		}
		fmt.Fprintln(out, "selftest PASS")
		return 0
	}

	if *drill {
		return runDrill(out, errw, *seed, *ops, *quiet)
	}

	if fs.NArg() != 1 {
		fmt.Fprintln(errw, "usage: ccam-fsck [-repair] [-q] file.ccam")
		fmt.Fprintln(errw, "       ccam-fsck -flip page:bit file.ccam")
		fmt.Fprintln(errw, "       ccam-fsck -selftest")
		fmt.Fprintln(errw, "       ccam-fsck -drill [-seed n] [-ops n]")
		return 2
	}
	path := fs.Arg(0)

	if *flip != "" {
		var page, bit int
		if _, err := fmt.Sscanf(*flip, "%d:%d", &page, &bit); err != nil {
			fmt.Fprintf(errw, "ccam-fsck: bad -flip %q (want page:bit): %v\n", *flip, err)
			return 2
		}
		if err := storage.CorruptPage(path, storage.PageID(page), bit); err != nil {
			fmt.Fprintln(errw, "ccam-fsck:", err)
			return 2
		}
		fmt.Fprintf(out, "flipped bit %d of page %d in %s\n", bit, page, path)
		return 0
	}

	var rep *storage.FsckReport
	var err error
	if *repair {
		rep, err = storage.RepairFile(path)
	} else {
		rep, err = storage.CheckFile(path)
	}
	if err == nil && *repair && rep.OK() && len(rep.Repaired) > 0 {
		// The records of quarantined pages are gone: drop the list
		// entries that name them, so the survivors' lists agree, and
		// report the file as that leaves it.
		actions := rep.Repaired
		var n int
		if n, err = unlinkLost(path); err == nil {
			rep, err = storage.CheckFile(path)
		}
		if err == nil && n > 0 {
			actions = append(actions, fmt.Sprintf("unlinked %d list entries naming nodes no page stores", n))
		}
		if err == nil {
			rep.Repaired = actions
		}
	}
	if err != nil {
		fmt.Fprintln(errw, "ccam-fsck:", err)
		return 2
	}
	printReport(out, rep, *quiet)

	// WAL pass: scan the sibling log directory for structural damage
	// and report what a reopen would replay. Independent of the data
	// file's physical state — a damaged file with a healthy log is
	// recoverable, and vice versa is worth shouting about.
	walProblems, werr := checkWAL(path, rep.WAL, out, *quiet)
	if werr != nil {
		fmt.Fprintln(errw, "ccam-fsck:", werr)
		return 2
	}

	// Logical pass, once the physical layer is clean: what a reopen
	// would serve must pass Store.Verify.
	clean := rep.OK() && walProblems == 0
	if clean {
		nodes, finding, verr := verifyReopened(path)
		if verr != nil {
			fmt.Fprintln(errw, "ccam-fsck:", verr)
			return 2
		}
		if clean = finding == nil; clean && !*quiet {
			fmt.Fprintf(out, "records: %d nodes, each stored once\n", nodes)
		} else if !clean {
			fmt.Fprintf(out, "damaged: %v\n", finding)
		}
	}
	if clean {
		fmt.Fprintf(out, "%s: clean (generation %d, %d live pages, %d free)\n",
			path, rep.Generation, rep.LivePages, len(rep.FreePages))
		return 0
	}
	fmt.Fprintf(out, "%s: DAMAGED\n", path)
	return 1
}

func printReport(out io.Writer, rep *storage.FsckReport, quiet bool) {
	for _, act := range rep.Repaired {
		fmt.Fprintf(out, "repair: %s\n", act)
	}
	if quiet {
		return
	}
	checked := "plain pages"
	if rep.Checked {
		checked = "checksummed pages"
	}
	fmt.Fprintf(out, "%s: page size %d, %s, generation %d, %d allocated (%d free)\n",
		rep.Path, rep.PageSize, checked, rep.Generation, rep.NextPage, len(rep.FreePages))
	if rep.HeaderErr != nil {
		fmt.Fprintf(out, "header: %v\n", rep.HeaderErr)
	}
	if rep.FreeListErr != nil {
		fmt.Fprintf(out, "free list: %v\n", rep.FreeListErr)
	}
	for _, d := range rep.Restored {
		fmt.Fprintf(out, "restored from log: %s\n", d)
	}
	for _, d := range rep.Damaged {
		fmt.Fprintf(out, "damaged: %s\n", d)
	}
}

// checkWAL inspects the data file's sibling WAL directory and returns
// the number of problems found (0 when the log is healthy or there is
// legitimately no log). hdrWAL reports whether the data file's header
// carries FlagWAL.
func checkWAL(path string, hdrWAL bool, out io.Writer, quiet bool) (problems int, err error) {
	dir := storage.WALDir(path)
	if _, statErr := os.Stat(dir); statErr != nil {
		if !os.IsNotExist(statErr) {
			return 0, statErr
		}
		if hdrWAL {
			fmt.Fprintf(out, "wal: header flags a WAL but %s is missing — the committed tail is unrecoverable\n", dir)
			return 1, nil
		}
		return 0, nil
	}
	rep, err := storage.CheckWALDir(dir)
	if err != nil {
		return 0, err
	}
	if !quiet {
		fmt.Fprintf(out, "wal: %d segments, %d records, last lsn %d\n",
			rep.Segments, rep.Records, rep.LastLSN)
		if rep.CheckpointLSN != 0 {
			fmt.Fprintf(out, "wal: last complete checkpoint at lsn %d, %d committed batches to replay\n",
				rep.CheckpointLSN, rep.Committed)
		} else {
			fmt.Fprintf(out, "wal: no complete checkpoint, %d committed batches to replay\n", rep.Committed)
		}
	}
	if rep.Torn {
		// The normal signature of a crash: the next open truncates it.
		fmt.Fprintln(out, "wal: torn tail (benign; truncated on next open)")
	}
	if !hdrWAL {
		fmt.Fprintf(out, "wal: %s exists but the data file header does not flag a WAL\n", dir)
		problems++
	}
	if rep.Err != nil {
		fmt.Fprintf(out, "wal: STRUCTURAL DAMAGE: %v\n", rep.Err)
		problems++
	}
	return problems, nil
}

// runDrill executes the WAL crash drill (internal/waldrill) in a temp
// dir: a seeded batch stream, a simulated crash at every log record
// boundary plus torn mid-record cuts, and recovery verified against
// the exact committed prefix at each.
func runDrill(out, errw io.Writer, seed int64, ops int, quiet bool) int {
	dir, err := os.MkdirTemp("", "ccam-waldrill")
	if err != nil {
		fmt.Fprintln(errw, "ccam-fsck:", err)
		return 2
	}
	defer os.RemoveAll(dir)
	cfg := waldrill.Config{Seed: seed, Ops: ops, Torn: true}
	if !quiet {
		cfg.Logf = func(format string, args ...any) {
			fmt.Fprintf(out, format+"\n", args...)
		}
	}
	res, err := waldrill.Run(dir, cfg)
	if err != nil {
		fmt.Fprintln(errw, "ccam-fsck: drill FAILED:", err)
		return 1
	}
	fmt.Fprintf(out, "drill PASS: %d ops in %d batches (%d moved records they did not insert) and %d rounds, %d log records, %d crash points recovered exactly\n",
		res.Ops, res.Batches, res.Reorganized, res.Rounds, res.Records, res.CrashPoints)
	fmt.Fprintf(out, "drill CRR after recovery - committed CRR: min %+.4f median %+.4f max %+.4f (replay is first-order and reorganizations log nothing; reported, not checked)\n",
		res.CRRDrift[0], res.CRRDrift[1], res.CRRDrift[2])
	return 0
}

// verifyReopened is the logical pass: it opens a scratch copy of the
// file and its WAL directory with ccam.OpenPath, replaying the log, and
// runs Store.Verify, so it checks what a reopen would serve and never
// writes the file under check. It returns the node count, or the
// finding (a failed open or Verify), and err for environmental failures.
func verifyReopened(path string) (nodes int, finding, err error) {
	dir, err := os.MkdirTemp("", "ccam-fsck-verify")
	if err != nil {
		return 0, nil, err
	}
	defer os.RemoveAll(dir)
	cpath := filepath.Join(dir, filepath.Base(path))
	if err := storage.CopyStore(cpath, path); err != nil {
		return 0, nil, err
	}
	s, err := ccam.OpenPath(cpath, ccam.Options{})
	if err != nil {
		return 0, err, nil
	}
	if finding = s.Verify(); finding == nil {
		nodes = s.Len()
	}
	if err := s.Close(); err != nil && finding == nil {
		return 0, nil, fmt.Errorf("close the scratch copy: %w", err)
	}
	return nodes, finding, nil
}

// unlinkLost drops from every record of the file at path the successor
// and predecessor entries that name a node no page stores, and returns
// how many it dropped. A file that does not open is left to the
// logical pass, which reports why.
func unlinkLost(path string) (dropped int, err error) {
	st, fs, err := storage.OpenPageFile(path)
	if err != nil {
		return 0, err
	}
	defer func() {
		if cerr := fs.Close(); err == nil {
			err = cerr
		}
	}()
	f, err := netfile.OpenFromStoreOpts(st, netfile.Options{})
	if err != nil {
		return 0, nil
	}
	lost := func(id ccam.NodeID) bool { return !f.Has(id) }
	for _, pid := range f.Pages() {
		recs, err := f.RecordsOnPage(pid)
		if err != nil {
			return 0, err
		}
		for _, rec := range recs {
			n := len(rec.Succs) + len(rec.Preds)
			rec.Succs = slices.DeleteFunc(rec.Succs, func(e netfile.SuccEntry) bool { return lost(e.To) })
			if rec.Preds = slices.DeleteFunc(rec.Preds, lost); len(rec.Succs)+len(rec.Preds) < n {
				dropped += n - len(rec.Succs) - len(rec.Preds)
				if err := f.UpdateRecord(rec); err != nil {
					return 0, err
				}
			}
		}
	}
	if err := f.Pool().Close(); err != nil {
		return 0, err
	}
	return dropped, fs.Sync()
}

// runSelftest exercises the whole durability story end to end in a
// temp dir: build a file-backed store, corrupt one page, verify fsck
// locates exactly that page, repair, and confirm OpenPath degrades
// gracefully to the surviving records.
func runSelftest(out io.Writer) error {
	dir, err := os.MkdirTemp("", "ccam-fsck-selftest")
	if err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	path := filepath.Join(dir, "net.ccam")

	opts := ccam.MinneapolisLikeOpts()
	opts.Rows, opts.Cols = 12, 12 // small map keeps the smoke test fast
	g, err := ccam.RoadMap(opts)
	if err != nil {
		return err
	}
	store, err := ccam.Open(ccam.Options{PageSize: 1024, Path: path, Seed: 7})
	if err != nil {
		return err
	}
	if err := store.Build(g); err != nil {
		store.Close()
		return err
	}
	total := store.Len()
	pages := store.NumPages()
	if err := store.Close(); err != nil {
		return err
	}
	fmt.Fprintf(out, "selftest: built %s (%d nodes on %d pages)\n", path, total, pages)

	// A pristine file must verify clean.
	rep, err := storage.CheckFile(path)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("pristine file reported damaged: header=%v freelist=%v damaged=%v",
			rep.HeaderErr, rep.FreeListErr, rep.Damaged)
	}

	// Flip one bit in the middle of page 1 and expect exactly that
	// page flagged.
	const victim = storage.PageID(1)
	if err := storage.CorruptPage(path, victim, 1024*4+3); err != nil {
		return err
	}
	rep, err = storage.CheckFile(path)
	if err != nil {
		return err
	}
	if len(rep.Damaged) != 1 || rep.Damaged[0].ID != victim {
		return fmt.Errorf("after corrupting page %d, fsck flagged %v", victim, rep.Damaged)
	}
	if !errors.Is(rep.Damaged[0].Err, storage.ErrChecksum) {
		return fmt.Errorf("damage not classified as checksum failure: %v", rep.Damaged[0].Err)
	}
	fmt.Fprintf(out, "selftest: corruption located on page %d (%v)\n", victim, rep.Damaged[0].Err)

	// The store itself must refuse the damaged page...
	if _, err := ccam.OpenPath(path, ccam.Options{}); err == nil {
		return fmt.Errorf("OpenPath succeeded on a corrupted file")
	}

	// ...and open again after repair, minus the quarantined page.
	rep, err = storage.RepairFile(path)
	if err != nil {
		return err
	}
	if !rep.OK() {
		return fmt.Errorf("file still damaged after repair: %v", rep.Damaged)
	}
	reopened, err := ccam.OpenPath(path, ccam.Options{})
	if err != nil {
		return fmt.Errorf("OpenPath after repair: %w", err)
	}
	defer reopened.Close()
	if got := reopened.Len(); got >= total || got == 0 {
		return fmt.Errorf("after quarantine expected 0 < nodes < %d, got %d", total, got)
	}
	fmt.Fprintf(out, "selftest: repaired; %d of %d nodes survive quarantine\n", reopened.Len(), total)
	return nil
}
