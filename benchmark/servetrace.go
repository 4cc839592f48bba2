package main

import (
	"bufio"
	"context"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync"
	"time"

	"ccam"
	"ccam/internal/server"
	"ccam/internal/wire"
)

// ladderRates are the open-loop rates of the traced served run: the
// three frozen rates and two rungs above hi, toward saturation.
func ladderRates(sc scale) []int {
	hi := sc.ServeRates[2]
	return []int{sc.ServeRates[0], sc.ServeRates[1], hi, hi * 6 / 5, hi * 7 / 5}
}

// servedOptions are the options ccam-serve opens its store with under
// default flags; the in-process server probes use the same.
func servedOptions() ccam.Options {
	return ccam.Options{PoolPages: 256, PoolShards: ccam.AutoPoolShards(256), Prefetch: true,
		Metrics: true, WAL: true, TraceCapacity: 256}
}

// pipeListener hands the server the far ends of in-memory pipes.
type pipeListener struct {
	conns chan net.Conn
	done  chan struct{}
	once  sync.Once
}

func newPipeListener() *pipeListener {
	return &pipeListener{conns: make(chan net.Conn), done: make(chan struct{})}
}

func (l *pipeListener) Accept() (net.Conn, error) {
	select {
	case c := <-l.conns:
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

func (l *pipeListener) Close() error {
	l.once.Do(func() { close(l.done) })
	return nil
}

func (l *pipeListener) Addr() net.Addr { return pipeAddr{} }

// dial returns the near end of a new pipe whose far end the server
// accepts.
func (l *pipeListener) dial() (net.Conn, error) {
	near, far := net.Pipe()
	select {
	case l.conns <- far:
		return near, nil
	case <-l.done:
		near.Close()
		far.Close()
		return nil, net.ErrClosed
	}
}

type pipeAddr struct{}

func (pipeAddr) Network() string { return "pipe" }
func (pipeAddr) String() string  { return "pipe" }

// syncConn is the traced replay's connection: one request in flight,
// every step on the caller's goroutine so spans nest.
type syncConn struct {
	conn net.Conn
	br   *bufio.Reader
	bw   *bufio.Writer
	id   uint32
}

func dialSync(addr string) (*syncConn, error) {
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		return nil, err
	}
	return &syncConn{conn: conn, br: bufio.NewReader(conn), bw: bufio.NewWriter(conn)}, nil
}

// roundtrip sends one op and decodes the answer into res.
func (c *syncConn) roundtrip(m *mix, o *op, res *result, tr *tracer) error {
	sp := tr.begin("wire.encode")
	wop, body := requestOf(m, o)
	c.id++
	frame := wire.EncodeRequest(c.id, wop, 0, body)
	tr.end(sp)
	sp = tr.begin("rpc.roundtrip")
	err := wire.WriteFrame(c.bw, frame)
	if err == nil {
		err = c.bw.Flush()
	}
	var payload []byte
	if err == nil {
		payload, err = wire.ReadFrame(c.br)
	}
	tr.end(sp)
	if err != nil {
		return err
	}
	sp = tr.begin("wire.decode")
	_, rbody, err := wire.DecodeResponse(payload)
	if err == nil {
		err = decodeInto(o, rbody, res)
	}
	tr.end(sp)
	return err
}

// pass replays n ops of client's stream over the wire, one at a time.
func (c *syncConn) pass(m *mix, ref *reference, seed int64, client, n int, tr *tracer) (failed int64, elapsed time.Duration, err error) {
	gen := newOpGen(m, seed, client)
	start := time.Now()
	for i := 0; i < n; i++ {
		o := gen.next()
		var res result
		root := int32(-1)
		if tr != nil {
			root = tr.beginOp("op." + kindNames[o.kind])
		}
		cseq := ref.committed.Load()
		if err := c.roundtrip(m, &o, &res, tr); err != nil {
			return 0, 0, err
		}
		if tr != nil {
			tr.end(root)
		}
		if !ref.check(m, &o, &res, cseq, cseq) {
			failed++
		}
	}
	return failed, time.Since(start), nil
}

// pingWhile sends Pings to the child one at a time, pingGap apart, on
// a connection of its own while fn runs, and returns their round-trip
// times. A Ping crosses everything a Find crosses except the request
// and record codecs and the store: both sockets, the wake-up of the
// child's reader and of the client, framing, admission and dispatch,
// and whatever queue the load fn generates has built up.
func pingWhile(addr string, fn func() error) (samples, error) {
	c, err := wire.Dial(addr)
	if err != nil {
		return nil, err
	}
	defer c.Close()
	var rtts samples
	var perr error
	stop, done := make(chan struct{}), make(chan struct{})
	go func() {
		defer close(done)
		for {
			select {
			case <-stop:
				return
			default:
			}
			t0 := time.Now()
			if err := c.Ping(context.Background()); err != nil {
				perr = fmt.Errorf("ping: %w", err)
				return
			}
			rtts = append(rtts, time.Since(t0).Nanoseconds())
			time.Sleep(pingGap)
		}
	}()
	err = fn()
	close(stop)
	<-done
	if err == nil {
		err = perr
	}
	return rtts, err
}

// probeWire times the four codec steps of a Find round trip on their
// own, over the records of a sample of hot keys.
func probeWire(r *runResult, s *ccam.Store, keys []ccam.NodeID) error {
	ctx := context.Background()
	recs := make([]*ccam.Record, len(keys))
	for i, id := range keys {
		rec, err := s.Find(ctx, id)
		if err != nil {
			return err
		}
		recs[i] = rec
	}
	reqs := make([][]byte, len(keys))
	resps := make([][]byte, len(keys))
	var perr error
	enc := timeN(len(keys), func(i int) {
		reqs[i] = wire.EncodeRequest(uint32(i), wire.OpFind, 0, wire.EncodeIDBody(keys[i]))
	})
	dec := timeN(len(keys), func(i int) {
		_, _, _, body, err := wire.DecodeRequest(reqs[i])
		if err == nil {
			_, err = wire.DecodeIDBody(body)
		}
		if err != nil {
			perr = err
		}
	})
	encResp := timeN(len(keys), func(i int) {
		resps[i] = wire.EncodeOKResponse(uint32(i), wire.EncodeRecordBody(recs[i]))
	})
	decResp := timeN(len(keys), func(i int) {
		_, body, err := wire.DecodeResponse(resps[i])
		if err == nil {
			_, err = wire.DecodeRecordBody(body)
		}
		if err != nil {
			perr = err
		}
	})
	if perr != nil {
		return fmt.Errorf("probe wire: %w", perr)
	}
	allocs, _ := allocsN(len(keys), func(i int) {
		req := wire.EncodeRequest(uint32(i), wire.OpFind, 0, wire.EncodeIDBody(keys[i]))
		_, _, _, body, _ := wire.DecodeRequest(req)
		wire.DecodeIDBody(body)
		resp := wire.EncodeOKResponse(uint32(i), wire.EncodeRecordBody(recs[i]))
		_, body, _ = wire.DecodeResponse(resp)
		wire.DecodeRecordBody(body)
	})
	var bytes float64
	for _, p := range resps {
		bytes += float64(len(p) + 4) // the frame's length prefix
	}
	r.set("wire.encode_req_ns", enc.quantile(0.5))
	r.set("wire.decode_req_ns", dec.quantile(0.5))
	r.set("wire.encode_resp_ns", encResp.quantile(0.5))
	r.set("wire.decode_resp_ns", decResp.quantile(0.5))
	r.set("wire.allocs_per_roundtrip", allocs)
	r.set("wire.resp_bytes_per_find", bytes/float64(len(resps)))
	return nil
}

// probeServer runs the serving layer in process on s and times Find
// through it: over an in-memory pipe (what decode, admission, dispatch
// and encode add to the store call) and over TCP loopback (what the
// kernel's socket path adds to that).
func probeServer(r *runResult, s *ccam.Store, keys []ccam.NodeID) (direct float64, err error) {
	ctx := context.Background()
	srv := server.New(server.Options{Store: s})
	pl := newPipeListener()
	tl, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	var wg sync.WaitGroup
	for _, l := range []net.Listener{pl, tl} {
		wg.Add(1)
		go func(l net.Listener) {
			defer wg.Done()
			srv.ServeBinary(l)
		}(l)
	}
	defer func() {
		sctx, cancel := context.WithTimeout(ctx, 10*time.Second)
		defer cancel()
		srv.Shutdown(sctx)
		wg.Wait()
	}()
	pconn, err := pl.dial()
	if err != nil {
		return 0, err
	}
	pc := wire.NewClient(pconn)
	defer pc.Close()
	tc, err := wire.Dial(tl.Addr().String())
	if err != nil {
		return 0, err
	}
	defer tc.Close()

	directNS, err := findP50(keys, storeFind(s))
	if err != nil {
		return 0, fmt.Errorf("probe server, direct: %w", err)
	}
	pipeNS, err := findP50(keys, func(id ccam.NodeID) error { _, err := pc.Find(ctx, id); return err })
	if err != nil {
		return 0, fmt.Errorf("probe server, pipe: %w", err)
	}
	tcpNS, err := findP50(keys, func(id ccam.NodeID) error { _, err := tc.Find(ctx, id); return err })
	if err != nil {
		return 0, fmt.Errorf("probe server, loopback: %w", err)
	}
	r.set("server.dispatch_overhead_ns", pipeNS-directNS)
	r.set("server.loopback_overhead_ns", tcpNS-pipeNS)
	return directNS, nil
}

// runTracedServed is the traced run of serve_open: the rate ladder,
// the one-connection traced replay over the wire, and the wire and
// server probes.
func runTracedServed(w workload, sc scale, o options) (*runResult, error) {
	dir, err := scratchDir(o.out, w.Name)
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(dir)
	rig, _, err := startRig(dir, 0, w, sc, o)
	if err != nil {
		return nil, err
	}
	stopped := false
	defer func() {
		rig.close()
		if !stopped {
			rig.child.kill()
		}
	}()
	r := newTracedResult(w.Name, o)
	pid := rig.child.cmd.Process.Pid

	if _, err := rig.closedPhase(sc.Warmup, 100); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}

	// The rate ladder.
	var refFindNS float64
	var pings samples
	for i, rate := range ladderRates(sc) {
		cpu0 := cpuSeconds(pid)
		shed0 := rig.sheds()
		var st *clientStats
		var late *hist
		phase := func() (err error) {
			st, late, err = rig.openPhase(rate, sc.LadderPhase, 10*i)
			return err
		}
		if rate == sc.ServeRates[1] {
			// The budget's transport row: Pings beside the mid rung.
			pings, err = pingWhile(rig.child.addr, phase)
		} else {
			err = phase()
		}
		if err != nil {
			return nil, fmt.Errorf("open loop at %d/s: %w", rate, err)
		}
		r.Attempted += st.ops
		r.Failed += st.failed
		p99 := st.allQuantile(0.99) / 1e3
		r.Extra[fmt.Sprintf("ladder_%d_p99_us", rate)] = p99
		r.Extra[fmt.Sprintf("ladder_%d_late_p99_us", rate)] = late.quantile(0.99) / 1e3
		// A rung holds when its p99 meets the limit and the generator's
		// own lateness stays well inside it (no growing backlog).
		if p99 <= sc.P99LimitUS && late.quantile(0.99)/1e3 <= sc.P99LimitUS/2 && st.failed == 0 {
			r.set("server.max_rate_ok", float64(rate))
		}
		switch rate {
		case sc.ServeRates[1]:
			r.set("server.cpu_us_per_req", (cpuSeconds(pid)-cpu0)*1e6/float64(st.ops))
			r.set("loadgen.late_p50_us", late.quantile(0.50)/1e3)
			r.set("loadgen.late_p99_us", late.quantile(0.99)/1e3)
			refFindNS = st.quantile(opFind, 0.5)
			r.flagLate(late.quantile(0.50), refFindNS)
			r.Extra["replay_find_p50_us"] = refFindNS / 1e3
			r.Counts["ref_find_samples"] = st.samples(opFind)
			r.set("demoted.succ_p50_us", st.quantile(opSucc, 0.5)/1e3)
			r.set("demoted.query_p50_us", st.quantile(opQuery, 0.5)/1e3)
			r.set("tail.find_p99_us", st.quantile(opFind, 0.99)/1e3)
			r.set("tail.route_p99_us", st.quantile(opRoute, 0.99)/1e3)
		case sc.ServeRates[2]:
			r.set("server.shed_share", float64(rig.sheds()-shed0)/float64(st.ops))
			r.set("tail.hi_rate_p99_us", p99)
		}
	}

	// The replay: untraced, then traced, over one synchronous
	// connection.
	conn, err := dialSync(rig.child.addr)
	if err != nil {
		return nil, err
	}
	defer conn.conn.Close()
	n := sc.TraceOps / 2
	failed, plain, err := conn.pass(rig.m, rig.ref, o.seed, 300, n, nil)
	if err != nil {
		return nil, fmt.Errorf("replay: %w", err)
	}
	tr := newTracer(n * 4)
	failed2, traced, err := conn.pass(rig.m, rig.ref, o.seed, 300, n, tr)
	if err != nil {
		return nil, fmt.Errorf("traced replay: %w", err)
	}
	r.Attempted += int64(2 * n)
	r.Failed += failed + failed2
	r.Counts["replay_ops"] = int64(n)
	r.set("trace.overhead_ratio", traced.Seconds()/plain.Seconds())

	// Stop the child, then probe the codec and the serving layer in
	// process on the same file.
	rig.close()
	stopped = true
	if err := rig.child.stop(); err != nil {
		return nil, err
	}
	path := storePath(dir, 0)
	plainPath := filepath.Join(dir, "plain.ccam")
	if err := copyStore(path, plainPath); err != nil {
		return nil, err
	}
	inst, err := ccam.OpenPath(path, servedOptions())
	if err != nil {
		return nil, fmt.Errorf("open for server probes: %w", err)
	}
	defer inst.Close()
	keys := hotKeys(rig.m, o.seed, 200, probeCalls)
	if err := probeWire(r, inst, keys); err != nil {
		return nil, err
	}
	directNS, err := probeServer(r, inst, keys)
	if err != nil {
		return nil, err
	}
	popts := servedOptions()
	popts.Metrics, popts.TraceCapacity = false, 0
	plainStore, err := ccam.OpenPath(plainPath, popts)
	if err != nil {
		return nil, fmt.Errorf("open uninstrumented copy: %w", err)
	}
	offNS, err := findP50(keys, storeFind(plainStore))
	plainStore.Close()
	if err != nil {
		return nil, err
	}
	r.set("ccam.metrics_on_ratio", directNS/offNS)

	// The served Find budget, held against the mid rung's Find median:
	// the client's codec steps from the traced replay, the transport
	// from the Pings sent beside that rung, the server's share of the
	// codec and the store call from the in-process probes.
	ops := tr.perOp("op.find")
	row := func(name string) float64 {
		vals := make(samples, len(ops))
		for i, o := range ops {
			vals[i] = o.dur[name]
		}
		return vals.quantile(0.5)
	}
	r.Budget = []budgetRow{
		{"wire (client encode)", row("wire.encode")},
		{"wire (client decode)", row("wire.decode")},
		{"transport and dispatch (Ping round trip, mid rate)", pings.quantile(0.5)},
		{"wire (server decode + encode)", r.Metrics["wire.decode_req_ns"] + r.Metrics["wire.encode_resp_ns"]},
		{"ccam (store Find, metrics on)", directNS},
	}
	r.Counts["ping_samples"] = int64(len(pings))
	r.Extra["replay_rpc_find_p50_us"] = row("rpc.roundtrip") / 1e3
	r.set("budget.unattributed_share", unattributedShare(r.Budget, refFindNS))
	r.flagBudget()
	return r, tr.write(o.out, w.Name, o.seed, r.Budget)
}
