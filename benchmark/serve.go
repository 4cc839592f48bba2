package main

import (
	"bufio"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"ccam"
	"ccam/internal/wire"
)

// child is a running ccam-serve process.
type child struct {
	cmd     *exec.Cmd
	addr    string
	drained chan struct{} // closed when the child's stdout reaches EOF
}

// startChild starts the commit's own ccam-serve on a built store with
// default flags, except that it listens on a free loopback port and
// leaves HTTP off. It returns once the binary port is announced.
func startChild(bin, storePath, logPath string) (*child, error) {
	if bin == "" {
		return nil, errors.New("no ccam-serve binary: run through benchmark/run.sh or pass -serve-bin")
	}
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	defer logf.Close() // the child keeps its own descriptor
	cmd := exec.Command(bin, "-path", storePath, "-tcp", "127.0.0.1:0", "-http", "")
	cmd.Stderr = logf
	// Should the harness be killed, the kernel takes the child with it.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	c := &child{cmd: cmd, drained: make(chan struct{})}
	addrc := make(chan string, 1)
	go func() {
		defer close(c.drained)
		sc := bufio.NewScanner(stdout)
		for sc.Scan() {
			line := sc.Text()
			if rest, ok := strings.CutPrefix(line, "tcp: listening on "); ok {
				select {
				case addrc <- strings.Fields(rest)[0]:
				default:
				}
			}
		}
	}()
	select {
	case c.addr = <-addrc:
		return c, nil
	case <-c.drained:
		cmd.Wait()
		return nil, fmt.Errorf("ccam-serve exited before listening (see %s)", logPath)
	case <-time.After(60 * time.Second):
		c.kill()
		return nil, errors.New("ccam-serve did not announce its port within 60 s")
	}
}

// stop asks the child to drain (SIGTERM: finish in-flight requests,
// checkpoint, close) and waits for it; a child that does not exit in
// time is killed.
func (c *child) stop() error {
	c.cmd.Process.Signal(syscall.SIGTERM)
	select {
	case <-c.drained:
		return c.cmd.Wait()
	case <-time.After(45 * time.Second):
		c.kill()
		return errors.New("ccam-serve did not drain within 45 s; killed")
	}
}

func (c *child) kill() {
	c.cmd.Process.Kill()
	<-c.drained
	c.cmd.Wait()
}

// inflight is a request that was sent and not answered yet.
type inflight struct {
	o    op
	from time.Time // when it was due (open loop) or sent (closed loop)
	c0   uint64
	st   *clientStats
	slot bool // holds one of the connection's pipeline slots
}

// pconn is one pipelined binary-protocol connection: a sender (the
// caller's goroutine) and a receiver goroutine that matches responses
// to requests by id, checks them and records their latency.
type pconn struct {
	conn net.Conn
	bw   *bufio.Writer
	ref  *reference
	m    *mix

	mu      sync.Mutex
	pending map[uint32]inflight
	nextID  uint32

	outstanding atomic.Int64
	shed        atomic.Int64
	slots       chan struct{} // bounds in-flight requests in a closed loop
	rdone       chan struct{}
	rerr        error
}

func dialPipelined(addr string, ref *reference, m *mix) (*pconn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	p := &pconn{conn: conn, bw: bufio.NewWriterSize(conn, 64<<10), ref: ref, m: m,
		pending: make(map[uint32]inflight), rdone: make(chan struct{}),
		slots: make(chan struct{}, pipelineDepth)}
	go p.receive(bufio.NewReaderSize(conn, 64<<10))
	return p, nil
}

func (p *pconn) close() {
	p.conn.Close()
	<-p.rdone
}

func requestOf(m *mix, o *op) (wire.Op, []byte) {
	switch o.kind {
	case opFind:
		return wire.OpFind, wire.EncodeIDBody(o.id)
	case opSucc:
		return wire.OpGetSuccessors, wire.EncodeIDBody(o.id)
	case opRoute:
		return wire.OpEvaluateRoute, wire.EncodeIDsBody(m.routes[o.route])
	case opRange:
		return wire.OpRangeQuery, wire.EncodeRectBody(o.rect)
	default:
		return wire.OpQuery, wire.EncodeQueryBody(o.query, false)
	}
}

func decodeInto(o *op, body []byte, res *result) (err error) {
	switch o.kind {
	case opFind:
		res.rec, err = wire.DecodeRecordBody(body)
	case opSucc, opRange:
		res.recs, err = wire.DecodeRecordsBody(body)
	case opRoute:
		res.agg, err = wire.DecodeAggBody(body)
	default:
		res.qr, err = wire.DecodeResultBody(body)
	}
	return err
}

// send writes one request. from is the instant its latency counts
// from; slot says the caller took a pipeline slot for it.
func (p *pconn) send(o op, from time.Time, st *clientStats, slot bool) error {
	wop, body := requestOf(p.m, &o)
	p.mu.Lock()
	p.nextID++
	id := p.nextID
	p.pending[id] = inflight{o: o, from: from, c0: p.ref.committed.Load(), st: st, slot: slot}
	p.mu.Unlock()
	p.outstanding.Add(1)
	return wire.WriteFrame(p.bw, wire.EncodeRequest(id, wop, 0, body))
}

func (p *pconn) receive(br *bufio.Reader) {
	defer close(p.rdone)
	for {
		payload, err := wire.ReadFrame(br)
		if err != nil {
			p.rerr = err
			return
		}
		done := time.Now()
		id, body, rerr := wire.DecodeResponse(payload)
		p.mu.Lock()
		in, ok := p.pending[id]
		delete(p.pending, id)
		p.mu.Unlock()
		if !ok {
			p.rerr = fmt.Errorf("response for unknown request id %d", id)
			return
		}
		var res result
		good := rerr == nil && decodeInto(&in.o, body, &res) == nil &&
			p.ref.check(p.m, &in.o, &res, in.c0, p.ref.committed.Load())
		d := done.Sub(in.from).Nanoseconds()
		in.st.record(in.o.kind, d)
		switch {
		case good:
		case errors.Is(rerr, ccam.ErrOverloaded):
			// Shed by admission control: a correct answer to an open
			// loop that ran ahead of the server. Counted on its own
			// (server.shed_share), not as a failure.
			p.shed.Add(1)
		default:
			in.st.failed++
		}
		if in.slot {
			<-p.slots
		}
		p.outstanding.Add(-1)
	}
}

// waitIdle waits until every request sent has been answered.
func (p *pconn) waitIdle(limit time.Duration) error {
	deadline := time.Now().Add(limit)
	for p.outstanding.Load() > 0 {
		select {
		case <-p.rdone:
			return fmt.Errorf("connection lost with %d requests unanswered: %v", p.outstanding.Load(), p.rerr)
		default:
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("%d requests unanswered after %s", p.outstanding.Load(), limit)
		}
		time.Sleep(500 * time.Microsecond)
	}
	return nil
}

// closedLoopPipelined keeps up to pipelineDepth requests in flight
// until the deadline: a request is sent as soon as a slot is free.
func (p *pconn) closedLoopPipelined(gen *opGen, start, until time.Time) (*clientStats, error) {
	st := newClientStats(start)
	for time.Now().Before(until) {
		o := gen.next()
		select {
		case p.slots <- struct{}{}:
		default:
			// The window is full: push out what is buffered, then wait
			// for an answer to free a slot.
			if err := p.bw.Flush(); err != nil {
				return nil, err
			}
			select {
			case p.slots <- struct{}{}:
			case <-p.rdone:
				return nil, fmt.Errorf("connection lost: %v", p.rerr)
			}
		}
		if err := p.send(o, time.Now(), st, true); err != nil {
			return nil, err
		}
	}
	if err := p.bw.Flush(); err != nil {
		return nil, err
	}
	return st, p.waitIdle(30 * time.Second)
}

// servedRig is a served store with its connections.
type servedRig struct {
	child *child
	conns []*pconn
	m     *mix
	ref   *reference
	seed  int64
}

func (r *servedRig) close() {
	for _, c := range r.conns {
		c.close()
	}
}

// openPhase runs one open-loop phase: one generator sends a request
// every 1/rate seconds from start, to the connections in turn, whether
// or not earlier ones were answered. Each request is timed from the
// instant it was due. The returned histogram holds how far behind its
// schedule the generator itself ran.
func (r *servedRig) openPhase(rate int, d time.Duration, firstClient int) (*clientStats, *hist, error) {
	interval := time.Second / time.Duration(rate)
	n := int(d / interval)
	pace := startPacer()
	defer pace.stop()
	start := time.Now().Add(2 * time.Millisecond)
	gens := make([]*opGen, len(r.conns))
	parts := make([]*clientStats, len(r.conns))
	for i := range r.conns {
		gens[i] = newOpGen(r.m, r.seed, firstClient+i)
		parts[i] = newClientStats(start)
	}
	late := new(hist)
	for i := 0; i < n; i++ {
		c := i % len(r.conns)
		o := gens[c].next()
		due := start.Add(time.Duration(i) * interval)
		pace.until(due)
		late.add(time.Since(due).Nanoseconds())
		if err := r.conns[c].send(o, due, parts[c], false); err != nil {
			return nil, nil, err
		}
		if err := r.conns[c].bw.Flush(); err != nil {
			return nil, nil, err
		}
	}
	for i, c := range r.conns {
		if err := c.waitIdle(30 * time.Second); err != nil {
			return nil, nil, err
		}
		if i > 0 {
			parts[0].merge(parts[i])
		}
	}
	parts[0].measured = interval * time.Duration(n)
	return parts[0], late, nil
}

// closedPhase runs the closed-loop saturation phase.
func (r *servedRig) closedPhase(d time.Duration, firstClient int) (*clientStats, error) {
	start := time.Now()
	parts := make([]*clientStats, len(r.conns))
	errs := make([]error, len(r.conns))
	var wg sync.WaitGroup
	for i, c := range r.conns {
		wg.Add(1)
		go func(i int, c *pconn) {
			defer wg.Done()
			parts[i], errs[i] = c.closedLoopPipelined(newOpGen(r.m, r.seed, firstClient+i), start, start.Add(d))
		}(i, c)
	}
	wg.Wait()
	// The phase lasts until its last answer: draining the pipelines is
	// part of completing the ops counted.
	measured := time.Since(start)
	for i := range parts {
		if errs[i] != nil {
			return nil, errs[i]
		}
		if i > 0 {
			parts[0].merge(parts[i])
		}
	}
	parts[0].measured = measured
	return parts[0], nil
}

func (r *servedRig) sheds() int64 {
	var n int64
	for _, c := range r.conns {
		n += c.shed.Load()
	}
	return n
}

// setupServed is one set-up of the served workload: map generation,
// Build, close, start the child, first answered Ping.
func setupServed(dir string, i int, w workload, sc scale, bin string) (*child, *ccam.Network, time.Duration, error) {
	start := time.Now()
	path := storePath(dir, i)
	g, err := buildStoreFile(path, w, sc)
	if err != nil {
		return nil, nil, 0, err
	}
	ch, err := startChild(bin, path, filepath.Join(dir, fmt.Sprintf("serve%d.log", i)))
	if err != nil {
		return nil, nil, 0, err
	}
	c, err := wire.Dial(ch.addr)
	if err != nil {
		ch.kill()
		return nil, nil, 0, err
	}
	defer c.Close()
	if err := c.Ping(context.Background()); err != nil {
		ch.kill()
		return nil, nil, 0, fmt.Errorf("ping: %w", err)
	}
	return ch, g, time.Since(start), nil
}

// startRig sets the served workload up once (set-up number i of the
// run) and connects to the child.
func startRig(dir string, i int, w workload, sc scale, o options) (*servedRig, time.Duration, error) {
	ch, g, d, err := setupServed(dir, i, w, sc, o.serveBin)
	if err != nil {
		return nil, 0, fmt.Errorf("setup %d: %w", i, err)
	}
	ref, err := newReference(g)
	if err != nil {
		ch.kill()
		return nil, 0, err
	}
	m, err := newMix(g, o.seed, ref)
	if err != nil {
		ch.kill()
		return nil, 0, err
	}
	rig := &servedRig{child: ch, m: m, ref: ref, seed: o.seed}
	for c := 0; c < connections; c++ {
		conn, err := dialPipelined(ch.addr, ref, m)
		if err != nil {
			rig.close()
			ch.kill()
			return nil, 0, err
		}
		rig.conns = append(rig.conns, conn)
	}
	return rig, d, nil
}

// A served window is a number of rounds, each one open-loop phase at
// the mid rate and one closed-loop saturation phase, with a probe of
// the echo process (see echo.go) before, between and after: a phase is
// scaled by the probes on both sides of it. The lo and hi rates are run
// by the traced run's ladder only.
const (
	servedMid = time.Second
	servedSat = 650 * time.Millisecond
)

// servedRounds is the number of rounds in a window of the given length.
func servedRounds(seconds int) int {
	return max(1, int((time.Duration(seconds)*time.Second+(servedMid+servedSat)/2)/(servedMid+servedSat)))
}

// servedRun is what the phases of a served run measured.
type servedRun struct {
	mid, sat, tail    []*segment
	late              hist
	attempted, failed int64
	rssPeak, space    float64
	shed              int64
	checked, bad      int
}

// runServed runs the untraced served workload: like the in-process
// ones it sets up sc.Setups times, each time with a child of its own,
// and measures on the last.
func runServed(w workload, sc scale, o options) (*runResult, error) {
	dir, err := scratchDir(o.out, w.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	var setups []time.Duration
	var rig *servedRig
	for i := 0; i < sc.Setups; i++ {
		if rig != nil {
			// Only the last set-up's child is measured on.
			rig.close()
			if err := rig.child.stop(); err != nil {
				return nil, fmt.Errorf("stop after setup %d: %w", i-1, err)
			}
			removeStore(storePath(dir, i-1))
		}
		var d time.Duration
		if rig, d, err = startRig(dir, i, w, sc, o); err != nil {
			return nil, err
		}
		setups = append(setups, d)
	}
	path := storePath(dir, sc.Setups-1)
	run, err := measureServed(rig, path, w, sc, o.seed, o.seconds)
	removeStore(path)
	if err != nil {
		return nil, err
	}

	r := newRunResult(w.Name, o.seed, o.seconds)
	r.Attempted, r.Failed = run.attempted, run.failed
	// The set-up is the build, memory's work: it is scaled by the memory
	// kernel, which the served run takes in its write tail.
	r.setupMetric(setups, run.tail)
	// Latencies are client-observed at the mid rate; throughput is the
	// saturation phase.
	r.readMetrics(run.mid, readOf, midLean)
	scaled, raw := rateAtRefSpeed(run.sat, readOf, satLean)
	r.setScaled("ops_per_s", scaled, raw)
	r.writeMetrics(run.tail)
	r.set("rss_peak_mb", run.rssPeak)
	r.set("space_amp", run.space)
	mid := pooled(run.mid, readOf)
	r.Extra["mid_rate"] = float64(sc.ServeRates[1])
	r.Extra["mid_late_p50_us"] = run.late.quantile(0.50) / 1e3
	r.Extra["mid_late_p99_us"] = run.late.quantile(0.99) / 1e3
	r.Counts["mid_requests"] = mid.ops
	r.flagLate(run.late.quantile(0.50), mid.quantile(opFind, 0.50))
	sat := pooled(run.sat, readOf)
	r.Extra["sat_all_p50_us"] = sat.allQuantile(0.50) / 1e3
	r.Extra["sat_slowdown_p50"] = medianSlow(run.sat)
	r.Counts["sat_requests"] = sat.ops
	r.Counts["shed"] = run.shed
	r.Counts["verified_records"] = int64(run.checked)
	r.Counts["verify_misses"] = int64(run.bad)
	return r, nil
}

// measureServed runs one warm-up, the rounds and the write tail on a
// child that was just started, then stops the child, reopens the file
// and verifies every acknowledged mutation. It always stops the child.
func measureServed(rig *servedRig, path string, w workload, sc scale, seed int64, seconds int) (*servedRun, error) {
	ctx := context.Background()
	stopped := false
	defer func() {
		rig.close()
		if !stopped {
			rig.child.kill()
		}
	}()
	warm, err := rig.closedPhase(sc.Warmup, 100)
	if err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	echo, err := startEcho(len(rig.conns))
	if err != nil {
		return nil, fmt.Errorf("echo process: %w", err)
	}
	defer echo.stop()
	rss := startRSS(rig.child.cmd.Process.Pid)
	run := new(servedRun)

	// before is the probe taken before the phase being measured; the
	// probe after it closes the phase's segment and opens the next.
	rate := sc.ServeRates[1]
	before, err := echo.probe(rate)
	if err != nil {
		return nil, err
	}
	closeSegment := func(st *clientStats) (*segment, error) {
		after, err := echo.probe(rate)
		if err != nil {
			return nil, err
		}
		sg := &segment{read: st, slow: (before + after) / 2 / echoRefNS}
		before = after
		return sg, nil
	}
	for i := 0; i < servedRounds(seconds); i++ {
		st, late, err := rig.openPhase(rate, servedMid, 1000+10*i)
		if err != nil {
			return nil, fmt.Errorf("open loop at %d/s: %w", rate, err)
		}
		sg, err := closeSegment(st)
		if err != nil {
			return nil, err
		}
		run.mid = append(run.mid, sg)
		run.late.merge(late)
		sat, err := rig.closedPhase(servedSat, 5000+10*i)
		if err != nil {
			return nil, fmt.Errorf("saturation: %w", err)
		}
		if sg, err = closeSegment(sat); err != nil {
			return nil, err
		}
		run.sat = append(run.sat, sg)
	}

	// The write tail, over the wire, alone.
	wc, err := wire.Dial(rig.child.addr)
	if err != nil {
		return nil, err
	}
	run.tail = writeTail(ctx, wireApplier(wc), newWriter(rig.ref, seed), newCalibrator(), sc.TailBatches)
	wc.Close()
	run.rssPeak = rss.halt()
	run.shed = rig.sheds()

	// SIGTERM drains, checkpoints and closes; then the harness itself
	// reopens the file and verifies every acknowledged mutation.
	rig.close()
	stopped = true
	if err := rig.child.stop(); err != nil {
		return nil, err
	}
	re, err := openStore(path, w, sc)
	if err != nil {
		return nil, fmt.Errorf("reopen after run: %w", err)
	}
	run.checked, run.bad = rig.ref.verifyAfterReopen(ctx, re)
	if err := re.Close(); err != nil {
		return nil, err
	}
	run.space = float64(storeBytes(path)) / float64(rig.ref.encodedBytes())
	run.attempted = warm.ops + int64(run.checked)
	run.failed = warm.failed + int64(run.bad)
	for _, segs := range [][]*segment{run.mid, run.sat, run.tail} {
		all := pooled(segs, func(s *segment) *clientStats {
			if s.read != nil {
				return s.read
			}
			return s.write
		})
		run.attempted += all.ops
		run.failed += all.failed
	}
	return run, nil
}
