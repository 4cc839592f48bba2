package metrics

import (
	"context"
	"fmt"
	"io"
	"sync"
	"time"
)

// traceIDKey carries a request's trace id through a context.Context,
// so operations deep in the store can tag the traces they record with
// the network request that caused them.
type traceIDKey struct{}

// WithTraceID returns a context carrying the given trace id. A zero id
// returns ctx unchanged (zero means "untraced" on the wire).
func WithTraceID(ctx context.Context, id uint64) context.Context {
	if id == 0 {
		return ctx
	}
	return context.WithValue(ctx, traceIDKey{}, id)
}

// TraceIDFrom extracts the trace id carried by ctx (0 when none).
func TraceIDFrom(ctx context.Context) uint64 {
	id, _ := ctx.Value(traceIDKey{}).(uint64)
	return id
}

// maxSpans bounds the spans recorded per trace. Only steps that cost
// microseconds are timed (a page read from storage): an operation with
// more of them (a broad range query on a cold pool) keeps its first
// maxSpans spans and counts the rest in Trace.Dropped — how many reads
// there were in all is in its Cost.
const maxSpans = 8

// inlineSpans is how many spans an Account holds in its own memory:
// all of them, so timing a step never allocates.
const inlineSpans = maxSpans

// epoch anchors the monotonic clock. An account keeps its instants as
// durations since it: reading one costs a single clock read, where
// time.Now pays for the wall clock as well — half as much again, on an
// operation that takes a few hundred nanoseconds.
var epoch = time.Now()

func now() time.Duration { return time.Since(epoch) }

// Span is one timed sub-step of a traced operation: the interval
// [Offset, Offset+Dur) relative to the trace's start.
type Span struct {
	Name   string
	Offset time.Duration
	Dur    time.Duration
}

// Cost is what an operation has cost so far in the paper's units, each
// field incremented by the step that does the work: the cursor's
// resolve and File.PageOf count index visits, the buffer pool counts
// its own answers and the write-backs an eviction forces.
type Cost struct {
	IndexVisits int64 // node→page lookups in the memory-resident node index
	Hits        int64 // page requests the pool answered without a read
	Misses      int64 // page requests that read the page from storage: the data reads
	Writes      int64 // dirty pages written to storage on the operation's behalf: the data writes
}

// Sub returns the change from an earlier reading of the same account.
func (c Cost) Sub(earlier Cost) Cost {
	return Cost{
		IndexVisits: c.IndexVisits - earlier.IndexVisits,
		Hits:        c.Hits - earlier.Hits,
		Misses:      c.Misses - earlier.Misses,
		Writes:      c.Writes - earlier.Writes,
	}
}

// String renders the cost as it appears in /traces and the slow-query
// log.
func (c Cost) String() string {
	return fmt.Sprintf("idx=%d hit=%d miss=%d writes=%d", c.IndexVisits, c.Hits, c.Misses, c.Writes)
}

// Trace is one completed operation recorded by a Tracer: the operation
// name, wall-clock timing, what it cost, the spans of its timed steps,
// and the error (if any) it returned.
type Trace struct {
	Seq     uint64 // monotonically increasing per tracer
	Op      string
	TraceID uint64 // wire trace id when the op ran on behalf of a traced request; 0 otherwise
	Start   time.Time
	Dur     time.Duration
	Cost
	Spans   []Span
	Dropped int    // spans beyond maxSpans
	Err     string // empty on success
}

// Detail renders the trace's account and then its spans:
// "idx=1 hit=0 miss=1 writes=0 [storage.read +1µs 9µs]".
func (tr *Trace) Detail() string {
	line := tr.Cost.String()
	if tr.Dropped > 0 {
		line += fmt.Sprintf(" dropped=%d", tr.Dropped)
	}
	for _, sp := range tr.Spans {
		line += fmt.Sprintf(" [%s +%v %v]", sp.Name, sp.Offset, sp.Dur)
	}
	return line
}

// Tracer records recent operation traces in a fixed-capacity ring
// buffer: cheap enough to leave on, detailed enough to explain why one
// Find was slow (what it counted, and how long each physical read
// took). A nil *Tracer disables tracing: an Account begun on it keeps
// its clock and counts but records nothing.
type Tracer struct {
	mu   sync.Mutex
	ring []Trace
	next int
	seq  uint64
}

// NewTracer returns a tracer keeping the most recent capacity traces
// (default 128 when capacity ≤ 0).
func NewTracer(capacity int) *Tracer {
	if capacity <= 0 {
		capacity = 128
	}
	return &Tracer{ring: make([]Trace, 0, capacity)}
}

// record puts a finished trace in the ring. tr.Spans is the caller's
// (an Account's own array): the spans are copied into the slot's
// storage, which is reused from the trace the slot held before.
func (t *Tracer) record(tr Trace) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.seq++
	tr.Seq = t.seq
	if len(t.ring) < cap(t.ring) {
		t.ring = append(t.ring, Trace{})
		t.next = len(t.ring) - 1
	}
	slot := &t.ring[t.next]
	tr.Spans = append(slot.Spans[:0], tr.Spans...)
	*slot = tr
	t.next = (t.next + 1) % cap(t.ring)
}

// Recent returns up to n of the most recent traces, newest first. It
// returns nil on a nil tracer.
func (t *Tracer) Recent(n int) []Trace {
	return t.Select(n, TraceFilter{})
}

// TraceFilter narrows a Select: zero fields match everything.
type TraceFilter struct {
	// TraceID, when non-zero, keeps only traces tagged with this wire
	// trace id.
	TraceID uint64
	// Op, when non-empty, keeps only traces of this operation.
	Op string
}

func (f TraceFilter) match(tr *Trace) bool {
	if f.TraceID != 0 && tr.TraceID != f.TraceID {
		return false
	}
	if f.Op != "" && tr.Op != f.Op {
		return false
	}
	return true
}

// Select returns up to n of the most recent traces matching the
// filter, newest first. It returns nil on a nil tracer.
func (t *Tracer) Select(n int, f TraceFilter) []Trace {
	if t == nil || n <= 0 {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	// Newest element sits just before next (mod length) once the ring
	// is full; before that, at the end of the slice.
	idx := t.next - 1
	if len(t.ring) < cap(t.ring) {
		idx = len(t.ring) - 1
	}
	var out []Trace
	for i := 0; i < len(t.ring) && len(out) < n; i++ {
		j := (idx - i + len(t.ring)) % len(t.ring)
		tr := t.ring[j]
		if !f.match(&tr) {
			continue
		}
		tr.Spans = append([]Span(nil), tr.Spans...)
		out = append(out, tr)
	}
	return out
}

// Capacity returns the ring size (0 on a nil tracer).
func (t *Tracer) Capacity() int {
	if t == nil {
		return 0
	}
	return cap(t.ring)
}

// WriteTo dumps the recent traces newest-first in a human-readable
// form, implementing io.WriterTo.
func (t *Tracer) WriteTo(w io.Writer) (int64, error) {
	return WriteTraces(w, t.Recent(t.Capacity()))
}

// WriteTraces renders traces (one line each) in the /traces dump
// format: sequence number, op, duration, the wire trace id when the op
// ran on behalf of a traced request, the error if any, the account and
// every span.
func WriteTraces(w io.Writer, traces []Trace) (int64, error) {
	var n int64
	for _, tr := range traces {
		line := fmt.Sprintf("#%d %s %v", tr.Seq, tr.Op, tr.Dur)
		if tr.TraceID != 0 {
			line += fmt.Sprintf(" trace=%016x", tr.TraceID)
		}
		if tr.Err != "" {
			line += " err=" + tr.Err
		}
		m, err := fmt.Fprintln(w, line, tr.Detail())
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// Account is one operation's account: what it has cost so far (Cost)
// and, between Begin and Finish, its clock and the spans of its timed
// steps. It is the one value threaded from the facade's bracket down
// the read and write paths; every step that does countable work
// increments it there, so the totals are the operation's own under any
// concurrency. It is owned by one goroutine and lives in its owner's
// frame. All methods are safe on a nil receiver, so a caller with
// nothing to charge passes nil and call sites need no enabled-checks.
//
// Only steps that cost microseconds get a span. A pool hit or an index
// lookup takes about as long as reading the clock twice, so a stopwatch
// around it measures the stopwatch: those steps are counted, and what
// they cost is the operation's duration less its spans.
type Account struct {
	Cost
	tracer  *Tracer // records the account at Finish; nil: no spans are kept
	op      string
	traceID uint64
	start   time.Duration // since epoch
	nspans  int
	spans   [maxSpans]Span
	dropped int
}

// IndexVisit counts one node→page lookup.
func (a *Account) IndexVisit() {
	if a != nil {
		a.IndexVisits++
	}
}

// Hit counts one page request the pool answered without a read.
func (a *Account) Hit() {
	if a != nil {
		a.Hits++
	}
}

// Miss counts one page request that reads the page from storage.
func (a *Account) Miss() {
	if a != nil {
		a.Misses++
	}
}

// Wrote counts n dirty pages written to storage.
func (a *Account) Wrote(n int) {
	if a != nil {
		a.Writes += int64(n)
	}
}

// Begin starts the operation's clock — one of the two clock reads an
// instrumented operation pays, Finish being the other. With a tracer,
// Finish records the account as one ring entry named op and the timed
// steps in between keep their spans; with none, only the clock runs.
// What was counted before Begin stays counted.
func (a *Account) Begin(t *Tracer, op string, traceID uint64) {
	a.tracer, a.op, a.traceID = t, op, traceID
	a.start = now()
}

// SpanToken marks an open span; close it with End. The zero token
// (from an account that keeps no spans, with no histogram) is valid
// and inert.
type SpanToken struct {
	span  *Span
	hist  *Histogram
	start time.Duration
}

// BeginSpan opens a named span whose duration End also observes into
// h (nil: none), so the span and the histogram time the same interval
// from the same two clock reads. With neither a tracer to record the
// span nor a histogram it returns an inert token without reading the
// clock; beyond maxSpans it counts the span as dropped and times it
// for h alone.
func (a *Account) BeginSpan(name string, h *Histogram) SpanToken {
	traced := a != nil && a.tracer != nil
	if !traced && h == nil {
		return SpanToken{}
	}
	tok := SpanToken{hist: h, start: now()}
	if !traced {
		return tok
	}
	if a.nspans == maxSpans {
		a.dropped++
		return tok
	}
	tok.span = &a.spans[a.nspans]
	*tok.span = Span{Name: name, Offset: tok.start - a.start}
	a.nspans++
	return tok
}

// End closes the span. No-op on an inert token.
func (s SpanToken) End() {
	if s.span == nil && s.hist == nil {
		return
	}
	d := now() - s.start
	if s.span != nil {
		s.span.Dur = d
	}
	s.hist.Observe(int64(d))
}

// Finish stops the clock and returns the operation's duration; with a
// tracer it also records the account as one trace. No-op on a nil
// account.
func (a *Account) Finish(err error) time.Duration {
	if a == nil {
		return 0
	}
	dur := now() - a.start
	if a.tracer == nil {
		return dur
	}
	tr := Trace{
		Op:      a.op,
		TraceID: a.traceID,
		Start:   epoch.Add(a.start),
		Dur:     dur,
		Cost:    a.Cost,
		Spans:   a.spans[:a.nspans],
		Dropped: a.dropped,
	}
	if err != nil {
		tr.Err = err.Error()
	}
	a.tracer.record(tr)
	return dur
}
