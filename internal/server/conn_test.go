package server

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"ccam"
	"ccam/internal/wire"
)

// Tests of one binary connection against hostile or unlucky peers,
// spoken over a raw TCP socket: what the connection loop does with
// frames that are too large, cut short or never finished.

func dialRaw(t testing.TB, addr string) net.Conn {
	t.Helper()
	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	conn.SetDeadline(time.Now().Add(10 * time.Second))
	return conn
}

// noDeadline lifts dialRaw's deadline.
var noDeadline time.Time

// frame returns payload behind its length prefix.
func frame(payload []byte) []byte {
	return append(binary.LittleEndian.AppendUint32(nil, uint32(len(payload))), payload...)
}

func findFrame(reqID uint32, id ccam.NodeID) []byte {
	return frame(wire.EncodeRequest(reqID, wire.OpFind, 0, wire.EncodeIDBody(id)))
}

// A length prefix above wire.MaxFrame is a corrupt peer: the connection
// is dropped, and the announced size is never allocated.
func TestOversizedFrameDropsConnection(t *testing.T) {
	st, _ := testStore(t)
	_, binAddr, _ := startServer(t, st, Options{})
	conn := dialRaw(t, binAddr)

	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	if _, err := conn.Write(binary.LittleEndian.AppendUint32(nil, wire.MaxFrame+1)); err != nil {
		t.Fatal(err)
	}
	if _, err := conn.Read(make([]byte, 1)); err != io.EOF {
		t.Fatalf("read after an oversized prefix = %v, want EOF (connection dropped)", err)
	}
	runtime.ReadMemStats(&after)
	if grew := after.TotalAlloc - before.TotalAlloc; grew > wire.MaxFrame/2 {
		t.Fatalf("server allocated %d bytes for a frame it had to refuse", grew)
	}
}

// Three complete requests followed by half of a fourth and then
// silence: the three replies must arrive without the rest being sent.
// Replies may wait for the connection to go quiet, but "quiet" means the
// next frame is not wholly there, not that no byte is.
func TestRepliesNotStrandedBehindHalfFrame(t *testing.T) {
	st, g := testStore(t)
	_, binAddr, _ := startServer(t, st, Options{})
	conn := dialRaw(t, binAddr)
	ids := g.NodeIDs()

	var out []byte
	for i := 0; i < 3; i++ {
		out = append(out, findFrame(uint32(i+1), ids[i])...)
	}
	fourth := findFrame(4, ids[3])
	out = append(out, fourth[:len(fourth)/2]...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	seen := map[uint32]bool{}
	for i := 0; i < 3; i++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("reply %d of 3 never came behind the half-sent frame: %v", i+1, err)
		}
		id, body, err := wire.DecodeResponse(payload)
		if err != nil {
			t.Fatal(err)
		}
		rec, err := wire.DecodeRecordBody(body)
		if err != nil || id < 1 || id > 3 || seen[id] || rec.ID != ids[id-1] {
			t.Fatalf("reply id %d carries %+v, %v", id, rec, err)
		}
		seen[id] = true
	}
	// The rest of the fourth frame completes it.
	if _, err := conn.Write(fourth[len(fourth)/2:]); err != nil {
		t.Fatal(err)
	}
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatal(err)
	}
	if id, _, err := wire.DecodeResponse(payload); err != nil || id != 4 {
		t.Fatalf("completed fourth frame answered (%d, %v)", id, err)
	}
}

// Half a frame and then a disconnect: the connection context is
// canceled under the request still running on the connection's behalf,
// and serveConn returns only after every goroutine it started has.
func TestHalfFrameThenDisconnect(t *testing.T) {
	st, g := testStore(t)
	entered := make(chan struct{}, 1)
	ended := make(chan error, 1)
	var hookOn atomic.Bool
	requestHook = func(ctx context.Context) {
		if !hookOn.Load() {
			return
		}
		entered <- struct{}{}
		select {
		case <-ctx.Done():
			ended <- ctx.Err()
		case <-time.After(10 * time.Second):
			ended <- errors.New("request context never canceled")
		}
	}
	defer func() { requestHook = nil }()
	srv := New(Options{Store: st})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		c, err := l.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		srv.serveConn(c)
	}()

	conn := dialRaw(t, l.Addr().String())
	ids := g.NodeIDs()
	hookOn.Store(true)
	// FindBatch can run long, so it runs beside the connection's reader.
	held := frame(wire.EncodeRequest(1, wire.OpFindBatch, 0, wire.EncodeIDsBody(ids[:4])))
	next := findFrame(2, ids[0])
	if _, err := conn.Write(append(held, next[:len(next)/2]...)); err != nil {
		t.Fatal(err)
	}
	<-entered
	conn.Close()
	if err := <-ended; !errors.Is(err, context.Canceled) {
		t.Fatalf("held request's context ended with %v, want Canceled", err)
	}
	select {
	case <-served:
	case <-time.After(5 * time.Second):
		t.Fatal("serveConn still running after the disconnect")
	}
}

// A request the server cannot decode is refused under its own id, not
// id 0: a pipelining client must be able to tell which request failed.
func TestUndecodableRequestsAnsweredByID(t *testing.T) {
	st, _ := testStore(t)
	_, binAddr, _ := startServer(t, st, Options{})
	conn := dialRaw(t, binAddr)

	expectRefusal := func(what string, want uint32) {
		t.Helper()
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("%s: no reply: %v", what, err)
		}
		id, _, err := wire.DecodeResponse(payload)
		if id != want || !errors.Is(err, wire.ErrBadRequest) {
			t.Fatalf("%s: reply (id %d, %v), want id %d and ErrBadRequest", what, id, err, want)
		}
	}

	// An op code no version defines.
	if _, err := conn.Write(frame(wire.EncodeRequest(77, wire.Op(0x7f), 0, nil))); err != nil {
		t.Fatal(err)
	}
	expectRefusal("unknown op", 77)

	// An extended header cut off after its flags byte.
	ext := wire.EncodeRequestHeader(wire.ReqHeader{ID: 78, Op: wire.OpFind, TraceID: 9, Sampled: true}, nil)
	if _, err := conn.Write(frame(ext[:10])); err != nil {
		t.Fatal(err)
	}
	expectRefusal("truncated extended header", 78)
}

// rawServer serves st's binary protocol on a loopback listener wrapped
// by wrap (nil: as is).
func rawServer(t testing.TB, st *ccam.Store, wrap func(net.Listener) net.Listener) (*Server, string) {
	t.Helper()
	srv := New(Options{Store: st})
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := l.Addr().String()
	if wrap != nil {
		l = wrap(l)
	}
	go srv.ServeBinary(l)
	return srv, addr
}

// 64 Finds arrive in one write and a drain races them: every one of
// them is answered exactly once, with its record or with ErrClosed, and
// then the connection ends. A reply may sit in the connection's buffer
// when the drain begins, or be refused after it; neither may be lost.
func TestPipelinedFindsRacingShutdown(t *testing.T) {
	st, g := testStore(t)
	ids := g.NodeIDs()
	const frames = 64
	var out []byte
	for i := 0; i < frames; i++ {
		out = append(out, findFrame(uint32(i+1), ids[i])...)
	}
	var (
		trigger, admitted atomic.Int64
		reached           = make(chan struct{}, 1)
	)
	requestHook = func(context.Context) {
		if admitted.Add(1) == trigger.Load() {
			reached <- struct{}{}
		}
	}
	defer func() { requestHook = nil }()

	iterations := 200
	if testing.Short() {
		iterations = 20
	}
	for it := 0; it < iterations; it++ {
		// The drain starts when request number trigger begins, so it
		// lands everywhere in the pipeline over the iterations.
		admitted.Store(0)
		trigger.Store(int64(it%frames) + 1)
		srv, addr := rawServer(t, st, nil)
		conn := dialRaw(t, addr)
		if _, err := conn.Write(out); err != nil {
			t.Fatal(err)
		}
		shut := make(chan error, 1)
		go func() {
			<-reached
			ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
			defer cancel()
			shut <- srv.Shutdown(ctx)
		}()

		seen := map[uint32]bool{}
		for {
			payload, err := wire.ReadFrame(conn)
			if err != nil {
				if err != io.EOF {
					t.Fatalf("iteration %d: connection ended with %v after %d replies", it, err, len(seen))
				}
				break
			}
			id, body, err := wire.DecodeResponse(payload)
			if id < 1 || id > frames || seen[id] {
				t.Fatalf("iteration %d: reply id %d unknown or repeated", it, id)
			}
			seen[id] = true
			if err != nil {
				if !errors.Is(err, ccam.ErrClosed) {
					t.Fatalf("iteration %d: request %d failed with %v", it, id, err)
				}
				continue
			}
			if rec, err := wire.DecodeRecordBody(body); err != nil || rec.ID != ids[id-1] {
				t.Fatalf("iteration %d: request %d answered %+v, %v", it, id, rec, err)
			}
		}
		if len(seen) != frames {
			t.Fatalf("iteration %d: %d replies to %d requests", it, len(seen), frames)
		}
		if err := <-shut; err != nil {
			t.Fatalf("iteration %d: Shutdown = %v", it, err)
		}
		conn.Close()
	}
}

// A statement held open does not delay the Finds pipelined behind it on
// the same connection, and its own reply goes out when it finishes even
// though the connection's reader is by then parked in read.
func TestHeldQueryDoesNotDelayPipelinedFinds(t *testing.T) {
	st, g := testStore(t)
	const heldTrace = 0x51
	block := make(chan struct{})
	entered := make(chan struct{}, 1)
	requestHook = func(ctx context.Context) {
		if ccam.TraceIDFrom(ctx) != heldTrace {
			return
		}
		entered <- struct{}{}
		select {
		case <-block:
		case <-ctx.Done():
		}
	}
	defer func() { requestHook = nil }()
	_, binAddr, _ := startServer(t, st, Options{})
	conn := dialRaw(t, binAddr)
	ids := g.NodeIDs()

	query := wire.EncodeRequestHeader(
		wire.ReqHeader{ID: 1, Op: wire.OpQuery, TraceID: heldTrace, Sampled: true},
		wire.EncodeQueryBody("FIND "+fmt.Sprint(ids[0]), false))
	out := append(frame(query), findFrame(2, ids[1])...)
	out = append(out, findFrame(3, ids[2])...)
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	<-entered
	conn.SetReadDeadline(time.Now().Add(3 * time.Second))
	for _, want := range []uint32{2, 3} {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatalf("Find %d waits behind the held statement: %v", want, err)
		}
		if id, _, err := wire.DecodeResponse(payload); err != nil || id != want {
			t.Fatalf("reply (%d, %v), want Find %d", id, err, want)
		}
	}
	close(block)
	payload, err := wire.ReadFrame(conn)
	if err != nil {
		t.Fatalf("released statement's reply never flushed: %v", err)
	}
	id, body, err := wire.DecodeResponse(payload)
	if err != nil || id != 1 {
		t.Fatalf("statement reply (%d, %v)", id, err)
	}
	if _, err := wire.DecodeResultBody(body); err != nil {
		t.Fatal(err)
	}
}

// writeCounter counts the write calls on the connections a listener
// accepts.
type writeCounter struct {
	net.Listener
	writes atomic.Int64
}

func (l *writeCounter) Accept() (net.Conn, error) {
	c, err := l.Listener.Accept()
	if err != nil {
		return nil, err
	}
	return countedWrites{c, &l.writes}, nil
}

type countedWrites struct {
	net.Conn
	n *atomic.Int64
}

func (c countedWrites) Write(p []byte) (int, error) {
	c.n.Add(1)
	return c.Conn.Write(p)
}

// 16 Finds sent in one write come back in at most two write calls, and
// the server's own counters say so too.
func TestPipelinedRepliesShareWrites(t *testing.T) {
	st, g := testStore(t)
	var wc *writeCounter
	srv, addr := rawServer(t, st, func(l net.Listener) net.Listener {
		wc = &writeCounter{Listener: l}
		return wc
	})
	defer srv.Shutdown(context.Background())
	conn := dialRaw(t, addr)
	ids := g.NodeIDs()

	const frames = 16
	var out []byte
	for i := 0; i < frames; i++ {
		out = append(out, findFrame(uint32(i+1), ids[i])...)
	}
	if _, err := conn.Write(out); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < frames; i++ {
		payload, err := wire.ReadFrame(conn)
		if err != nil {
			t.Fatal(err)
		}
		if _, _, err := wire.DecodeResponse(payload); err != nil {
			t.Fatal(err)
		}
	}
	if n := wc.writes.Load(); n < 1 || n > 2 {
		t.Fatalf("%d replies took %d write calls, want at most 2", frames, n)
	}
	if got, want := srv.writes.Value(), wc.writes.Load(); got != want {
		t.Fatalf("ccam_server_writes_total = %d, the connection saw %d writes", got, want)
	}
	if got := srv.inlined.Value(); got != frames {
		t.Fatalf("ccam_server_inline_total = %d, want %d", got, frames)
	}
}
