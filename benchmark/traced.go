package main

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"time"

	"ccam"
	"ccam/internal/costmodel"
	"ccam/internal/netfile"
	"ccam/internal/query/exec"
	"ccam/internal/query/lang"
	"ccam/internal/query/plan"
	"ccam/internal/storage"
)

// replay is the fixed-count, one-client run of a workload's stream
// that the per-layer counts come from: with one client, no timers and
// a pool emptied first, page reads, evictions and fsyncs repeat
// exactly from run to run.
type replay struct {
	s   *ccam.Store
	ps  *probeStack
	m   *mix
	ref *reference
	wr  *writer // nil: no writes
	// opsPerBatch reader ops are followed by one Apply batch.
	opsPerBatch int
	seed        int64
}

// replayStats is what one pass of the replay counted.
type replayStats struct {
	ops, batches, failed int64
	finds                int64
	elapsed              time.Duration
	io                   ccam.IOStats
	fsyncs               int64
	// find holds the Find latencies of an untraced pass, taken the way
	// the untraced run takes them.
	find samples
}

// coolRoot empties the root store's pool and touches every page once,
// so a pass starts from the same pool contents every time; coolProbe
// does the same to the probe stack.
func (rp *replay) coolRoot() error {
	if err := rp.s.ResetIO(); err != nil {
		return err
	}
	return rp.s.Scan(func(*ccam.Record) bool { return true })
}

func (rp *replay) coolProbe() error {
	if err := rp.ps.f.Pool().Reset(); err != nil {
		return err
	}
	return rp.ps.f.Scan(func(*netfile.Record) bool { return true })
}

// passRoot runs n ops of the stream of client index client on the
// root store, and the workload's writes between them; with a tracer it
// records a span around every call.
func (rp *replay) passRoot(ctx context.Context, client, n int, tr *tracer) (*replayStats, error) {
	gen := newOpGen(rp.m, rp.seed, client)
	st := new(replayStats)
	sc := storeCaller{s: rp.s, m: rp.m}
	io0, wal0 := rp.s.IO(), rp.s.WALStats()
	start := time.Now()
	for i := 0; i < n; i++ {
		o := gen.next()
		var res result
		c := rp.ref.committed.Load()
		sp := tr.beginOp("ccam." + kindNames[o.kind])
		t0 := time.Now()
		err := sc.call(ctx, &o, &res)
		if tr == nil && o.kind == opFind {
			st.find = append(st.find, time.Since(t0).Nanoseconds())
		}
		tr.end(sp)
		st.ops++
		if err != nil || !rp.ref.check(rp.m, &o, &res, c, c) {
			st.failed++
		}
		if rp.wr != nil && (i+1)%rp.opsPerBatch == 0 {
			muts := rp.wr.nextBatch()
			sp := tr.beginOp("ccam.apply")
			err := rp.s.Apply(ctx, toBatch(muts))
			tr.end(sp)
			st.batches++
			if err != nil {
				return nil, fmt.Errorf("apply: %w", err)
			}
			rp.wr.ack()
		}
	}
	st.elapsed = time.Since(start)
	st.io = rp.s.IO().Sub(io0)
	st.fsyncs = rp.s.WALStats().Fsyncs - wal0.Fsyncs
	return st, nil
}

// passProbe repeats the same n ops on the probe stack, layer by layer,
// a span around every call and around every page read underneath. The
// root store is left alone meanwhile, so the two stacks do not fight
// over the processor's caches inside one op.
func (rp *replay) passProbe(ctx context.Context, client, n int, tr *tracer) (*replayStats, error) {
	gen := newOpGen(rp.m, rp.seed, client)
	st := new(replayStats)
	rp.ps.trace(tr)
	defer rp.ps.trace(nil)
	start := time.Now()
	for i := 0; i < n; i++ {
		o := gen.next()
		root := tr.beginOp("probe." + kindNames[o.kind])
		if err := rp.probeOp(ctx, &o, tr); err != nil {
			return nil, fmt.Errorf("probe stack, %s: %w", kindNames[o.kind], err)
		}
		tr.end(root)
		st.ops++
		if o.kind == opFind {
			st.finds++
		}
	}
	st.elapsed = time.Since(start)
	return st, nil
}

// probeOp repeats one op on the probe stack, layer by layer.
func (rp *replay) probeOp(ctx context.Context, o *op, tr *tracer) error {
	f := rp.ps.f
	switch o.kind {
	case opFind:
		sp := tr.begin("netfile.find")
		rec, err := f.FindCtx(ctx, o.id)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("btree.get")
		_, err = rp.ps.tree.Get(uint64(o.id))
		tr.end(sp)
		if err != nil {
			return err
		}
		pid := rp.ps.place[o.id]
		sp = tr.begin("buffer.fetch")
		_, err = f.Pool().Fetch(pid)
		if err == nil {
			err = f.Pool().Unpin(pid, false)
		}
		tr.end(sp)
		if err != nil {
			return err
		}
		enc := netfile.EncodeRecord(rec)
		sp = tr.begin("netfile.decode")
		_, err = netfile.DecodeRecord(enc)
		tr.end(sp)
		return err
	case opSucc:
		sp := tr.begin("netfile.successors")
		_, err := f.GetSuccessorsCtx(ctx, o.id)
		tr.end(sp)
		return err
	case opRoute:
		sp := tr.begin("netfile.route")
		_, err := f.EvaluateRouteCtx(ctx, rp.m.routes[o.route])
		tr.end(sp)
		return err
	case opRange:
		sp := tr.begin("netfile.range")
		_, err := f.RangeQueryCtx(ctx, o.rect)
		tr.end(sp)
		return err
	default:
		sp := tr.begin("query.parse")
		q, err := lang.Parse(o.query)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("query.plan")
		pl, err := plan.Build(rp.ps.cat, q)
		tr.end(sp)
		if err != nil {
			return err
		}
		sp = tr.begin("query.exec")
		_, err = exec.Run(ctx, f, pl, q)
		tr.end(sp)
		return err
	}
}

// runTraced runs the traced replay and the layer probes of one
// workload and returns its per-layer metrics. It ends with a short
// untraced reference window (scale.RefWindow) run the way the untraced
// run runs it, same reader and same writer: the tails that were
// demoted from the end-to-end list are reported from it.
func runTraced(w workload, sc scale, o options) (*runResult, error) {
	if w.served {
		return runTracedServed(w, sc, o)
	}
	ctx := context.Background()
	dir, err := scratchDir(o.out, w.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	path := storePath(dir, 0)
	s, g, _, err := setupInProcess(path, w, sc)
	if err != nil {
		return nil, fmt.Errorf("setup: %w", err)
	}
	defer func() {
		if s != nil {
			s.Close()
		}
	}()
	r := newTracedResult(w.Name, o)

	// What the build left behind, and what its two halves cost.
	alpha := s.CRR(g)
	r.set("ccam.crr", alpha)
	r.set("ccam.wcrr", s.WCRR(g))
	if r.Metrics["partition.cluster_s"], r.Metrics["netfile.bulkload_s"], err = probeBuild(g); err != nil {
		return nil, err
	}
	ref, err := newReference(g)
	if err != nil {
		return nil, err
	}
	m, err := newMix(g, o.seed, ref)
	if err != nil {
		return nil, err
	}
	r.set("ccam.fill_ratio", float64(ref.encodedBytes())/
		(float64(s.NumPages())*float64(pageSize-storage.ChecksumTrailerLen)))
	r.set("netfile.pages_per_route_model", costmodel.RouteEvaluation(costmodel.Params{Alpha: alpha}, routeNodes))

	// The probe stack and the instrumented store each get their own
	// copy of the image, taken before anything is written.
	probePath, instPath := filepath.Join(dir, "probe.ccam"), filepath.Join(dir, "inst.ccam")
	for _, p := range []string{probePath, instPath} {
		if err := copyStore(path, p); err != nil {
			return nil, fmt.Errorf("copy image: %w", err)
		}
	}
	ps, err := openProbeStack(probePath, w.pool(sc))
	if err != nil {
		return nil, fmt.Errorf("probe stack: %w", err)
	}
	defer ps.close()

	if w.writer {
		// The instrumented copy is written first, from the fixture's
		// state, by a writer and reference of its own: the registry is
		// the only public place WAL bytes are counted.
		if err := probeWAL(r, dir, instPath, g, w, sc, o.seed); err != nil {
			return nil, err
		}
	}
	g = nil

	rp := &replay{s: s, ps: ps, m: m, ref: ref, seed: o.seed}
	if w.writer {
		rp.wr = newWriter(ref, o.seed)
		rp.opsPerBatch = sc.TraceOps / sc.TraceBatches
	}
	// Three passes over the same reader ops, each from cooled pools and
	// after a quarter-length lead-in: the root store untraced, the root
	// store traced, the probe stack traced.
	lead := sc.TraceOps / 4
	var plain, traced, probed *replayStats
	tr := newTracer(sc.TraceOps * 8)
	for _, t := range []*tracer{nil, tr} {
		if err := rp.coolRoot(); err != nil {
			return nil, err
		}
		if _, err := rp.passRoot(ctx, 301, lead, nil); err != nil {
			return nil, err
		}
		st, err := rp.passRoot(ctx, 300, sc.TraceOps, t)
		if err != nil {
			return nil, err
		}
		if t == nil {
			plain = st
		} else {
			traced = st
		}
	}
	if err := rp.coolProbe(); err != nil {
		return nil, err
	}
	if _, err := rp.passProbe(ctx, 301, lead, newTracer(lead*8)); err != nil {
		return nil, err
	}
	pool0 := ps.f.Pool().Stats()
	if probed, err = rp.passProbe(ctx, 300, sc.TraceOps, tr); err != nil {
		return nil, err
	}
	pool := ps.f.Pool().Stats().Sub(pool0)
	// The buffer.fetch span of every traced Find is one more fetch, and
	// a hit, that the stream itself does not make.
	pool.Fetches -= probed.finds
	pool.Hits -= probed.finds

	r.Attempted = plain.ops + traced.ops + plain.batches + traced.batches
	r.Failed = plain.failed + traced.failed
	r.set("trace.overhead_ratio", (traced.elapsed+probed.elapsed).Seconds()/plain.elapsed.Seconds())
	r.set("storage.reads_per_op", float64(traced.io.Reads)/float64(traced.ops))
	r.set("buffer.hit_ratio", float64(pool.Hits)/float64(pool.Fetches))
	r.set("buffer.evictions_per_op", float64(pool.Evictions)/float64(traced.ops))
	r.Counts["replay_ops"] = traced.ops
	r.Counts["replay_reads"] = traced.io.Reads
	r.Counts["replay_evictions"] = pool.Evictions
	if traced.batches > 0 {
		r.set("storage.writes_per_batch", float64(traced.io.Writes)/float64(traced.batches))
		r.set("storage.wal_fsyncs_per_batch", float64(traced.fsyncs)/float64(traced.batches))
		r.set("ccam.apply_ns_per_op", tr.durations("ccam.apply").mean()/batchOps)
		r.Counts["replay_batches"] = traced.batches
		r.Counts["replay_writes"] = traced.io.Writes
		r.Counts["replay_fsyncs"] = traced.fsyncs
	}
	rootFindNS, findNS := tr.durations("ccam.find").quantile(0.5), tr.durations("netfile.find").quantile(0.5)
	r.set("netfile.find_ns_p50", findNS)
	r.set("netfile.successors_ns_p50", tr.durations("netfile.successors").quantile(0.5))
	r.set("netfile.route_ns_per_hop", tr.durations("netfile.route").quantile(0.5)/(routeNodes-1))
	r.set("ccam.find_overhead_ns", rootFindNS-findNS)
	r.set("query.parse_ns_p50", tr.durations("query.parse").quantile(0.5))
	r.set("query.plan_ns_p50", tr.durations("query.plan").quantile(0.5))
	r.set("query.exec_ns_p50", tr.durations("query.exec").quantile(0.5))
	r.Budget = findBudget(tr)
	// The budget is held against the untraced pass over the same ops,
	// seconds earlier; the reference window's median, taken later with
	// the workload's full concurrency, is printed beside it.
	plainFind := plain.find.quantile(0.5)
	r.Extra["replay_find_p50_us"] = plainFind / 1e3
	r.set("budget.unattributed_share", unattributedShare(r.Budget, plainFind))
	if !w.writer {
		// Beside a writer the root store's Find runs on pages the writer
		// just changed and the probe stack's does not; the budget is
		// reported there, not held to the limit.
		r.flagBudget()
	}

	// Layer probes on quiet stacks.
	if err := ps.probeLayers(r, m, o.seed); err != nil {
		return nil, err
	}
	if r.Metrics["query.pages_pred_err"], err = ps.probeQueryPrediction(m, o.seed); err != nil {
		return nil, fmt.Errorf("query prediction probe: %w", err)
	}
	probeFacade(r, s, m, o.seed)
	if !w.writer {
		if r.Metrics["ccam.metrics_on_ratio"], err = probeMetricsOn(s, instPath, storeOptions("", w, sc), hotKeys(m, o.seed, 203, probeCalls)); err != nil {
			return nil, err
		}
	}

	// The reference window.
	var ws *clientStats
	done := make(chan struct{})
	sc0 := storeCaller{s: s, m: m}
	qs := new(clientStats) // statements issued beside a writer
	if w.writer {
		start := time.Now()
		qgen := newOpGen(m, o.seed, 50)
		go func() {
			defer close(done)
			ws = runWriter(ctx, storeApplier(s), rp.wr, start.Add(sc.RefWindow), 0, func() {
				o := qgen.nextQuery()
				timedCall(ctx, sc0, m, ref, &o, qs)
			})
			r.Attempted += qs.ops
			r.Failed += qs.failed
		}()
	} else {
		close(done)
	}
	rd := runClosed(ctx, sc0, m, ref, o.seed, 0, readers, sc.RefWindow, w.writer)
	<-done
	r.Attempted += rd.ops
	r.Failed += rd.failed
	refFind := rd.quantile(opFind, 0.5)
	r.Extra["ref_find_p50_us"] = refFind / 1e3
	r.Extra["ref_ops_per_s"] = rd.opsPerSecond()
	r.Counts["ref_find_samples"] = rd.samples(opFind)
	r.set("demoted.succ_p50_us", rd.quantile(opSucc, 0.5)/1e3)
	queries := rd
	if w.writer {
		queries = qs
	}
	r.set("demoted.query_p50_us", queries.quantile(opQuery, 0.5)/1e3)
	r.set("tail.find_p99_us", rd.quantile(opFind, 0.99)/1e3)
	r.set("tail.route_p99_us", rd.quantile(opRoute, 0.99)/1e3)
	r.set("tail.hi_rate_p99_us", rd.allQuantile(0.99)/1e3)
	if ws != nil {
		r.Attempted += ws.ops
		r.Failed += ws.failed
		r.set("tail.apply_p99_us", ws.quantile(opApply, 0.99)/1e3)
		r.Counts["ref_apply_batches"] = ws.ops
		if net, err := ref.network(); err == nil {
			r.set("ccam.crr_after_writes", s.CRR(net))
		}
		t0 := time.Now()
		if err := s.Checkpoint(); err != nil {
			return nil, fmt.Errorf("checkpoint: %w", err)
		}
		r.set("storage.checkpoint_ms", float64(time.Since(t0).Microseconds())/1e3)
	}

	// Close, reopen from disk (timed), verify what was acknowledged.
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
	r.set("storage.recover_ms", float64(time.Since(t0).Microseconds())/1e3)
	checked, bad := ref.verifyAfterReopen(ctx, re)
	if err := re.Close(); err != nil {
		return nil, err
	}
	r.Attempted += int64(checked)
	r.Failed += int64(bad)
	return r, tr.write(o.out, w.Name, o.seed, r.Budget)
}

// newTracedResult starts a traced result with every per-layer metric
// at 0: a workload leaves the metrics of layers it does not cross
// there.
func newTracedResult(name string, o options) *runResult {
	r := newRunResult(name, o.seed, o.seconds)
	r.Traced = true
	for _, d := range perLayer {
		r.set(d.Name, 0)
	}
	return r
}

// probeWAL measures the log. On a WAL of its own it times Append of a
// page image and the Commit that fsyncs it; on an instrumented copy of
// the image it applies the writer's first batches and divides the WAL
// bytes the registry counted by the encoded size of the mutations.
func probeWAL(r *runResult, dir, instPath string, g *ccam.Network, w workload, sc scale, seed int64) error {
	wal, err := storage.CreateWAL(filepath.Join(dir, "probe.wal"), storage.SyncGroupCommit, 0)
	if err != nil {
		return err
	}
	image := storage.EncodeWALPageImage(1, make([]byte, pageSize-storage.ChecksumTrailerLen))
	var appendNS, commitNS samples
	for i := 0; i < 200; i++ {
		t0 := time.Now()
		lsn, err := wal.Append(storage.WALRecPageImage, image)
		t1 := time.Now()
		if err == nil {
			err = wal.Commit(lsn)
		}
		if err != nil {
			wal.Close()
			return fmt.Errorf("probe wal: %w", err)
		}
		appendNS = append(appendNS, t1.Sub(t0).Nanoseconds())
		commitNS = append(commitNS, time.Since(t1).Nanoseconds())
	}
	if err := wal.Close(); err != nil {
		return err
	}
	r.set("storage.wal_append_ns_p50", appendNS.quantile(0.5))
	r.set("storage.wal_commit_ns_p50", commitNS.quantile(0.5))

	o := storeOptions("", w, sc)
	o.Metrics = true
	inst, err := ccam.OpenPath(instPath, o)
	if err != nil {
		return fmt.Errorf("open instrumented copy: %w", err)
	}
	defer inst.Close()
	ref, err := newReference(g)
	if err != nil {
		return err
	}
	wr := newWriter(ref, seed)
	bytes := inst.Metrics().Counter("ccam_wal_bytes_total")
	b0 := bytes.Value()
	var user int64
	for i := 0; i < sc.TraceBatches; i++ {
		muts := wr.nextBatch()
		for j := range muts {
			enc, err := netfile.EncodeMutation(muts[j].netfileMutation())
			if err != nil {
				return err
			}
			user += int64(len(enc))
		}
		if err := inst.Apply(context.Background(), toBatch(muts)); err != nil {
			return fmt.Errorf("apply on instrumented copy: %w", err)
		}
		wr.ack()
	}
	r.set("storage.wal_bytes_per_user_byte", float64(bytes.Value()-b0)/float64(user))
	return nil
}
