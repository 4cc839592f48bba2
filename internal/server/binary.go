package server

import (
	"bufio"
	"context"
	"errors"
	"net"
	"sync"
	"time"

	"ccam"
	"ccam/internal/wire"
)

const (
	// maxQueuedReplies bounds the replies (and the admission slots) a
	// connection holds back for one write while whole frames keep
	// arriving.
	maxQueuedReplies = 16
	// connBufSize is each direction's buffer; a request frame that fits
	// is served from the read buffer in place.
	connBufSize = 16 << 10
)

// ServeBinary accepts binary-protocol connections on l until the
// listener closes (Shutdown closes it). Each connection gets one
// goroutine, which reads requests and runs the cheap ones itself; see
// serveConn.
func (s *Server) ServeBinary(l net.Listener) error {
	s.listenMu.Lock()
	s.listeners = append(s.listeners, l)
	s.listenMu.Unlock()
	for {
		conn, err := l.Accept()
		if err != nil {
			if errors.Is(err, net.ErrClosed) {
				return nil
			}
			return err
		}
		go s.serveConn(conn)
	}
}

// binConn is one binary connection's write side, shared between the
// connection goroutine and the requests it handed off.
type binConn struct {
	s *Server

	mu sync.Mutex
	bw *bufio.Writer
	// held counts the admission slots of the requests whose replies sit
	// in bw: they are given back by the flush that carries the replies
	// out, so a drain cannot finish — and close the connection — over a
	// buffered reply.
	held int
	// parked is set while the connection goroutine is, or is about to
	// be, blocked in read with nothing left to flush: whoever queues a
	// reply then flushes it.
	parked bool
}

// countedConn counts the connection's write calls.
type countedConn struct {
	net.Conn
	s *Server
}

func (c countedConn) Write(p []byte) (int, error) {
	c.s.writes.Inc()
	return c.Conn.Write(p)
}

// send queues one response frame (wire.OpenFrame with the payload
// behind it); slots is the number of admission slots (0 or 1) the reply
// takes with it. The frame goes out at once when the connection
// goroutine is parked or enough replies are waiting; otherwise that
// goroutine flushes before it next blocks.
func (c *binConn) send(frame []byte, slots int) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if wire.SealFrame(frame) == nil {
		// A write error means the peer is gone; the read side fails next.
		_, _ = c.bw.Write(frame)
	}
	c.held += slots
	if c.parked || c.held >= maxQueuedReplies {
		c.flushLocked()
	}
}

func (c *binConn) flushLocked() {
	_ = c.bw.Flush() // as in send
	if c.held > 0 {
		c.s.release(c.held)
		c.held = 0
	}
}

// park flushes what is queued and leaves later replies to flush
// themselves: the connection goroutine is about to block.
func (c *binConn) park() {
	c.mu.Lock()
	c.flushLocked()
	c.parked = true
	c.mu.Unlock()
}

func (c *binConn) unpark() {
	c.mu.Lock()
	c.parked = false
	c.mu.Unlock()
}

// inline reports whether a request runs on the connection goroutine:
// the point and short-chain reads, chosen by their row's Inline bound on
// the body length. Everything that can run long — window and batch
// queries, longer routes, statements, commits — is handed to a
// goroutine. An op with no row is refused on the spot.
func inline(row wire.OpRow, body []byte) bool {
	return row == nil || len(body) <= row.Info().Inline
}

// serveConn runs one binary connection: requests run where they are
// read. The connection goroutine executes inline requests (see inline)
// itself, one after the other, and appends their replies to the
// connection's write buffer; the rest run in goroutines of their own,
// so a connection may pipeline and a slow request delays nothing queued
// behind it; replies are matched by request id. Buffered replies go out
// in one write before the goroutine can block — that is, when the next
// frame is not wholly buffered — and at the latest after
// maxQueuedReplies of them.
//
// The connection context is canceled the moment the read side fails: a
// client disconnect aborts every request that can run long. An inline
// request is not interrupted — nothing reads the connection while it
// runs — but its row bounds it to a few records, and it finishes.
func (s *Server) serveConn(conn net.Conn) {
	if !s.track(conn) { // already draining
		conn.Close()
		return
	}
	defer s.connWG.Done()
	if s.log != nil {
		s.log.Debug("connection open", "remote", conn.RemoteAddr())
	}
	ctx, cancel := context.WithCancel(context.Background())
	c := &binConn{s: s, bw: bufio.NewWriterSize(countedConn{conn, s}, connBufSize)}
	br := bufio.NewReaderSize(conn, connBufSize)
	var (
		pending sync.WaitGroup
		served  int64
		reply   []byte // the inline requests' reply buffer
	)
	for {
		parked := !wire.FrameBuffered(br)
		if parked {
			c.park()
		}
		frame, discard, err := wire.PeekFrame(br)
		if parked {
			c.unpark()
		}
		if err != nil {
			break
		}
		h, body, err := wire.DecodeRequestHeader(frame)
		if err != nil {
			c.send(errorFrame(reply[:0], h.ID, err, nil), 0)
			break
		}
		served++
		if row := h.Op.Row(); inline(row, body) {
			reply = s.handleBinary(ctx, c, h, row, body, true, reply[:0])
		} else {
			if discard > 0 { // frame aliases the read buffer
				body = append([]byte(nil), body...)
			}
			pending.Add(1)
			s.handOff(func() {
				defer pending.Done()
				s.handleBinary(ctx, c, h, row, body, false, nil)
			})
		}
		if _, err := br.Discard(discard); err != nil {
			break
		}
	}
	cancel()
	c.park() // handed-off requests still running flush their own replies
	pending.Wait()
	s.untrack(conn)
	conn.Close()
	if s.log != nil {
		s.log.Debug("connection closed", "remote", conn.RemoteAddr(), "requests", served)
	}
}

// workerIdle is how long a hand-off worker waits for its next job
// before it exits.
const workerIdle = time.Second

// handOff runs job on a goroutine of its own: an idle worker when there
// is one — its stack has already grown to what a window query or a
// statement needs, which a fresh goroutine pays for anew on every
// request — and otherwise a new worker. It never queues: a job always
// starts at once.
func (s *Server) handOff(job func()) {
	select {
	case s.work <- job:
	default:
		go s.worker(job)
	}
}

// worker runs job, then the jobs handed to it while it is idle, and
// exits once none has come for workerIdle.
func (s *Server) worker(job func()) {
	for {
		job()
		idle := time.NewTimer(workerIdle)
		select {
		case job = <-s.work:
			idle.Stop()
		case <-idle.C:
			return
		}
	}
}

// errorFrame builds the frame of an error response in buf.
func errorFrame(buf []byte, id uint32, err error, echo *ccam.ReqStats) []byte {
	buf = wire.AppendResponseHeader(wire.OpenFrame(buf), id, wire.CodeOf(err), echo)
	return wire.AppendErrBody(buf, err)
}

// handleBinary runs one binary request through the lifecycle (serve),
// its row serving it, and queues its response — built in buf, which it
// returns for reuse — with the request's admission slot: a drain that
// begins during the request cannot close the connection before the
// reply is out.
//
// A sampled request (extended header) tags the store-side traces with
// its trace id; a want-stats request gets its resource account echoed
// in the response stats block — on errors too, so a shed request
// reports Shed.
func (s *Server) handleBinary(connCtx context.Context, c *binConn, h wire.ReqHeader, row wire.OpRow, body []byte, inline bool, buf []byte) []byte {
	var rs *ccam.ReqStats
	ctx := connCtx
	if h.Sampled || h.WantStats {
		rs = new(ccam.ReqStats)
		ctx = ccam.WithReqStats(ctx, rs)
	}
	if h.Sampled && h.TraceID != 0 {
		ctx = ccam.WithTraceID(ctx, h.TraceID)
	}
	var echo *ccam.ReqStats
	if h.WantStats {
		echo = rs
	}
	meta := reqMeta{op: h.Op, traceID: h.TraceID, rs: rs, inline: inline}
	slots, err := s.serve(ctx, meta, h.DeadlineMS, func(ctx context.Context) (err error) {
		if row == nil {
			return wire.RemoteError(wire.CodeBadRequest, "unknown op "+h.Op.String())
		}
		buf, err = row.ServeBinary(ctx, s.st, body, wire.OpenFrame(buf[:0]), h.ID, echo)
		return err
	})
	if err != nil {
		buf = errorFrame(buf[:0], h.ID, err, echo)
	}
	c.send(buf, slots)
	return buf
}
