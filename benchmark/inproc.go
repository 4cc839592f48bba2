package main

import (
	"context"
	"fmt"
	"os"
	"runtime/debug"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"ccam"
)

// caller sends one op to the system under test and fills res.
type caller interface {
	call(ctx context.Context, o *op, res *result) error
}

// storeCaller drives the root ccam.Store in process.
type storeCaller struct {
	s *ccam.Store
	m *mix
}

func (c storeCaller) call(ctx context.Context, o *op, res *result) (err error) {
	switch o.kind {
	case opFind:
		res.rec, err = c.s.Find(ctx, o.id)
	case opSucc:
		res.recs, err = c.s.GetSuccessors(ctx, o.id)
	case opRoute:
		res.agg, err = c.s.EvaluateRoute(ctx, c.m.routes[o.route])
	case opRange:
		res.recs, err = c.s.RangeQuery(ctx, o.rect)
	case opQuery:
		res.qr, err = c.s.Query(ctx, o.query)
	}
	return err
}

// clientStats is what one load-generating goroutine (or, merged,
// several) measured over one stretch of a run — a segment of the
// window, a phase, a pass: a latency histogram per op kind and one over
// all kinds, and the ops completed in the time measured. Nothing is
// left out of either: a collector cycle, a checkpoint or a stalled
// reader is the store's own cost and lowers ops_per_s like any other
// time spent.
type clientStats struct {
	perKind [numKinds]hist
	all     hist
	// start is when the stretch began (a schedule's first due time in an
	// open loop); measured is how long the load lasted.
	start    time.Time
	measured time.Duration
	ops      int64
	failed   int64
}

func newClientStats(start time.Time) *clientStats { return &clientStats{start: start} }

// record adds one op of kind that took ns.
func (a *clientStats) record(kind opKind, ns int64) {
	a.perKind[kind].add(ns)
	a.all.add(ns)
	a.ops++
}

// merge adds the stats of a goroutine that shared a's window.
func (a *clientStats) merge(b *clientStats) {
	for k := range b.perKind {
		a.perKind[k].merge(&b.perKind[k])
	}
	a.all.merge(&b.all)
	a.ops += b.ops
	a.failed += b.failed
}

// extend adds the stats of a later stretch.
func (a *clientStats) extend(b *clientStats) {
	a.merge(b)
	a.measured += b.measured
}

// quantile is a kind's q-quantile, in ns.
func (a *clientStats) quantile(kind opKind, q float64) float64 { return a.perKind[kind].quantile(q) }

// allQuantile is quantile over all kinds together.
func (a *clientStats) allQuantile(q float64) float64 { return a.all.quantile(q) }

// opsPerSecond is every op completed over all the time measured.
func (a *clientStats) opsPerSecond() float64 {
	if a.measured <= 0 {
		return 0
	}
	return float64(a.ops) / a.measured.Seconds()
}

// samples is the number of ops of a kind.
func (a *clientStats) samples(kind opKind) int64 { return int64(a.perKind[kind].n) }

// timedCall sends one op, checks the answer and records its latency.
func timedCall(ctx context.Context, c caller, m *mix, ref *reference, o *op, st *clientStats) time.Time {
	var res result
	c0 := ref.committed.Load()
	t0 := time.Now()
	err := c.call(ctx, o, &res)
	now := time.Now()
	c1 := ref.committed.Load()
	st.record(o.kind, now.Sub(t0).Nanoseconds())
	if err != nil || !ref.check(m, o, &res, c0, c1) {
		st.failed++
	}
	return now
}

// closedLoop issues ops back to back for the window: the next op is
// sent only after the previous answer came back and was checked. Only
// the call itself is timed; generating the op and checking the answer
// happen outside the timed region (they do count against ops_per_s).
func closedLoop(ctx context.Context, c caller, gen *opGen, ref *reference, start time.Time, window time.Duration) *clientStats {
	st := newClientStats(start)
	loadFor(ctx, c, gen, ref, st, window)
	return st
}

// loadFor runs the closed loop for d from now and adds what it
// measured, and the time it took, to st.
func loadFor(ctx context.Context, c caller, gen *opGen, ref *reference, st *clientStats, d time.Duration) {
	start := time.Now()
	now := start
	for now.Sub(start) < d {
		o := gen.next()
		now = timedCall(ctx, c, gen.m, ref, &o, st)
	}
	st.measured += now.Sub(start)
}

// runClosed runs n closed-loop clients against c for d and merges
// what they measured. Client indexes start at first, so the warm-up
// and the windows draw different ops. With noQuery the clients issue
// Finds in place of statements.
func runClosed(ctx context.Context, c caller, m *mix, ref *reference, seed int64, first, n int, d time.Duration, noQuery bool) *clientStats {
	start := time.Now()
	parts := make([]*clientStats, n)
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			gen := newOpGen(m, seed, first+i)
			gen.noQuery = noQuery
			parts[i] = closedLoop(ctx, c, gen, ref, start, d)
		}(i)
	}
	wg.Wait()
	for _, p := range parts[1:] {
		parts[0].merge(p)
	}
	return parts[0]
}

// runWriter commits batches back to back until the deadline or, when
// count > 0, for exactly count batches, recording each Apply as an op
// of kind opApply. between, if not nil, runs after every acknowledged
// batch, outside the batch's timing.
func runWriter(ctx context.Context, apply applier, w *writer, until time.Time, count int, between func()) *clientStats {
	st := newClientStats(time.Now())
	writeBatches(ctx, apply, w, func() *clientStats {
		if (count > 0 && st.ops >= int64(count)) || (count == 0 && !time.Now().Before(until)) {
			return nil
		}
		return st
	}, between)
	st.measured = time.Since(st.start)
	return st
}

// writeBatches is the writer's closed loop: before every batch it asks
// into where to record it and stops when into returns nil. It reports
// whether every Apply succeeded.
func writeBatches(ctx context.Context, apply applier, w *writer, into func() *clientStats, between func()) bool {
	for st := into(); st != nil; st = into() {
		muts := w.nextBatch()
		t0 := time.Now()
		err := apply(ctx, muts)
		st.record(opApply, time.Since(t0).Nanoseconds())
		if err != nil {
			// The reference already holds the batch; nothing after a
			// failed Apply can be checked, so stop writing.
			st.failed++
			fmt.Fprintf(os.Stderr, "apply failed: %v\n", err)
			return false
		}
		w.ack()
		if between != nil {
			between()
		}
	}
	return true
}

// segLoad is the load of one window segment and loadChunk the stretch
// of it between two slices of the calibration kernel (see calib.go):
// a segment holds 21 slices, some 5% of its length.
const (
	segLoad   = time.Second
	loadChunk = 50 * time.Millisecond
	// tailSegBatches is the length of one segment of the write tail and
	// tailSliceEvery the number of batches between two kernel slices.
	tailSegBatches = 100
	tailSliceEvery = 10
)

// writeTail runs the writer alone for n batches in calibrated
// segments: the write tail of the workloads without a concurrent
// writer, from which they report what a commit costs on their
// configuration.
func writeTail(ctx context.Context, apply applier, wr *writer, cal *calibrator, n int) []*segment {
	var segs []*segment
	for done := 0; done < n; {
		size := min(tailSegBatches, n-done)
		sg := &segment{write: newClientStats(time.Now())}
		cal.kernelTime()
		cal.take(1)
		ok := writeBatches(ctx, apply, wr, func() *clientStats {
			if sg.write.ops >= int64(size) {
				return nil
			}
			return sg.write
		}, func() {
			if sg.write.ops%tailSliceEvery == 0 {
				cal.take(1)
			}
		})
		sg.write.measured = time.Since(sg.write.start) - cal.kernelTime()
		sg.slow = cal.slowdown()
		segs = append(segs, sg)
		done += size
		if !ok {
			break
		}
	}
	return segs
}

// inprocRun is what the windows of an in-process run measured.
type inprocRun struct {
	window, tail      []*segment
	attempted, failed int64
	rssPeak           float64
	space             float64
	recover           time.Duration
	checked, bad      int
}

// runInProcess runs one untraced in-process workload and returns its
// end-to-end metrics. The run sets the fixture up sc.Setups times and
// measures on the last of them: a warm-up, the window in segments of
// one second, the write tail.
func runInProcess(w workload, sc scale, seed int64, seconds int, out string) (*runResult, error) {
	dir, err := scratchDir(out, w.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)

	var setups []time.Duration
	var s *ccam.Store
	var g *ccam.Network
	path := storePath(dir, 0)
	for i := 0; i < sc.Setups; i++ {
		if s != nil {
			// Only the last set-up's store is measured on.
			if err := s.Close(); err != nil {
				return nil, fmt.Errorf("close after setup %d: %w", i-1, err)
			}
			removeStore(path)
		}
		var d time.Duration
		if s, g, d, err = setupInProcess(path, w, sc); err != nil {
			return nil, fmt.Errorf("setup %d: %w", i, err)
		}
		setups = append(setups, d)
	}
	run, err := measureInProcess(s, g, path, w, sc, seed, seconds)
	removeStore(path)
	if err != nil {
		return nil, err
	}

	r := newRunResult(w.Name, seed, seconds)
	r.Attempted, r.Failed = run.attempted, run.failed
	r.setupMetric(setups, run.window)
	r.readMetrics(run.window, readOf, readLean)
	writes := run.tail
	if w.writer {
		// The statements ran on the writer's goroutine, one after each
		// batch (see measureInProcess).
		writes = run.window
		r.queryMetrics(run.window, queryOf, readLean)
	}
	r.writeMetrics(writes)
	r.set("rss_peak_mb", run.rssPeak)
	r.set("space_amp", run.space)
	r.Counts["verified_records"] = int64(run.checked)
	r.Counts["verify_misses"] = int64(run.bad)
	r.Extra["recover_ms"] = float64(run.recover.Microseconds()) / 1e3
	return r, nil
}

// measureInProcess runs the warm-up, the window and the write tail on
// a store that was just set up, then closes the store, reopens it from
// disk and verifies every acknowledged mutation. It always closes s.
func measureInProcess(s *ccam.Store, g *ccam.Network, path string, w workload, sc scale, seed int64, seconds int) (*inprocRun, error) {
	ctx := context.Background()
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	ref, err := newReference(g)
	if err != nil {
		return nil, err
	}
	m, err := newMix(g, seed, ref)
	if err != nil {
		return nil, err
	}
	sc0 := storeCaller{s: s, m: m}

	// Warm-up: touch every page once (with a pool that holds the file
	// this leaves no physical read for the window), build the planner
	// catalog, then run the stream itself. The window draws the ops of
	// client indexes of its own.
	if err := s.Scan(func(*ccam.Record) bool { return true }); err != nil {
		return nil, fmt.Errorf("warm-up scan: %w", err)
	}
	warm := runClosed(ctx, sc0, m, ref, seed, 100, readers, sc.Warmup, false)
	cal := newCalibrator()
	debug.FreeOSMemory()
	rss := startRSS(os.Getpid())

	// The window: the reader alternates loadChunk of the stream with one
	// slice of the calibration kernel; a segment ends after segLoad of
	// load. Beside a writer the reader issues no statements; the writer's
	// goroutine issues one after each batch instead, so a statement never
	// plans while a batch commits. The writer records into the segment
	// that is current when a batch starts.
	run := new(inprocRun)
	for i := 0; i < seconds; i++ {
		sg := &segment{read: new(clientStats)}
		if w.writer {
			sg.write, sg.query = new(clientStats), new(clientStats)
		}
		run.window = append(run.window, sg)
	}
	wr := newWriter(ref, seed)
	var cur atomic.Int32
	var wwg sync.WaitGroup
	if w.writer {
		qgen := newOpGen(m, seed, 50)
		wwg.Add(1)
		go func() {
			defer wwg.Done()
			var sg *segment
			writeBatches(ctx, storeApplier(s), wr, func() *clientStats {
				i := int(cur.Load())
				if i >= len(run.window) {
					return nil
				}
				sg = run.window[i]
				return sg.write
			}, func() {
				o := qgen.nextQuery()
				timedCall(ctx, sc0, m, ref, &o, sg.query)
			})
		}()
	}
	gen := newOpGen(m, seed, 0)
	gen.noQuery = w.writer
	for i, sg := range run.window {
		// A kernel slice before every chunk of load and one after the last.
		start := time.Now()
		for sg.read.measured < segLoad {
			cal.take(1)
			loadFor(ctx, sc0, gen, ref, sg.read, loadChunk)
		}
		cal.take(1)
		sg.slow = cal.slowdown()
		cur.Store(int32(i + 1))
		if w.writer {
			// The writer ran through the reader's slices too: its time is
			// the segment's whole length.
			sg.write.measured = time.Since(start)
		}
	}
	wwg.Wait()
	if !w.writer {
		run.tail = writeTail(ctx, storeApplier(s), wr, cal, sc.TailBatches)
	}
	run.rssPeak = rss.halt()

	// Close (which checkpoints), reopen from disk and verify every
	// acknowledged mutation.
	err = s.Close()
	s = nil
	if err != nil {
		return nil, fmt.Errorf("close: %w", err)
	}
	t0 := time.Now()
	re, err := openStore(path, w, sc)
	if err != nil {
		return nil, fmt.Errorf("reopen after run: %w", err)
	}
	run.recover = time.Since(t0)
	run.checked, run.bad = ref.verifyAfterReopen(ctx, re)
	if err := re.Close(); err != nil {
		return nil, fmt.Errorf("close after verify: %w", err)
	}
	// The footprint is taken after this second close: the reopen has
	// checkpointed and pruned the log, so it does not depend on where in
	// a checkpoint cycle the window happened to end.
	run.space = float64(storeBytes(path)) / float64(ref.encodedBytes())

	run.attempted = warm.ops + int64(run.checked)
	run.failed = warm.failed + int64(run.bad)
	for _, sg := range slices.Concat(run.window, run.tail) {
		for _, c := range []*clientStats{sg.read, sg.write, sg.query} {
			if c != nil {
				run.attempted += c.ops
				run.failed += c.failed
			}
		}
	}
	return run, nil
}
