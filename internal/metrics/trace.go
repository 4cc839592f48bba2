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

// maxSpans bounds the spans recorded per trace; operations that touch
// more sub-steps (a long route evaluation, a broad range query) keep
// their first maxSpans spans and count the rest in Trace.Dropped.
const maxSpans = 64

// inlineSpans is how many spans an ActiveTrace holds in its own
// allocation: a point read records three, so tracing it costs that one
// allocation and no more.
const inlineSpans = 8

// Span is one timed sub-step of a traced operation: the interval
// [Offset, Offset+Dur) relative to the trace's start.
type Span struct {
	Name   string
	Offset time.Duration
	Dur    time.Duration
}

// Trace is one completed operation recorded by a Tracer: the operation
// name, wall-clock timing, its spans, and the error (if any) it
// returned.
type Trace struct {
	Seq     uint64 // monotonically increasing per tracer
	Op      string
	TraceID uint64 // wire trace id when the op ran on behalf of a traced request; 0 otherwise
	Start   time.Time
	Dur     time.Duration
	Spans   []Span
	Dropped int    // spans beyond maxSpans
	Err     string // empty on success
}

// Tracer records recent operation traces in a fixed-capacity ring
// buffer: cheap enough to leave on, detailed enough to explain why one
// Find was slow (index descent vs. buffer fetch vs. physical read). A
// nil *Tracer disables tracing: Start returns a nil *ActiveTrace whose
// methods all no-op.
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

// Start begins a trace of operation op. Returns nil (a valid,
// do-nothing handle) on a nil tracer.
func (t *Tracer) Start(op string) *ActiveTrace {
	if t == nil {
		return nil
	}
	return t.start(op, 0)
}

func (t *Tracer) start(op string, traceID uint64) *ActiveTrace {
	a := &ActiveTrace{tracer: t, op: op, traceID: traceID, start: time.Now()}
	a.spans = a.first[:0]
	return a
}

// StartCtx is Start tagging the trace with the trace id carried by ctx
// (see WithTraceID), so /traces can answer "what did request X do". On
// a nil tracer it returns nil without touching the context, keeping
// the disabled path free of ctx.Value lookups.
func (t *Tracer) StartCtx(ctx context.Context, op string) *ActiveTrace {
	if t == nil {
		return nil
	}
	return t.start(op, TraceIDFrom(ctx))
}

// record puts a finished trace in the ring. tr.Spans is the caller's
// (an ActiveTrace's own array): the spans are copied into the slot's
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
// ran on behalf of a traced request, the error if any, and every span.
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
		if tr.Dropped > 0 {
			line += fmt.Sprintf(" dropped=%d", tr.Dropped)
		}
		for _, sp := range tr.Spans {
			line += fmt.Sprintf(" [%s +%v %v]", sp.Name, sp.Offset, sp.Dur)
		}
		m, err := fmt.Fprintln(w, line)
		n += int64(m)
		if err != nil {
			return n, err
		}
	}
	return n, nil
}

// ActiveTrace is an in-flight trace. It is owned by one goroutine (the
// operation being traced); all methods are safe on a nil receiver, so
// call sites need no enabled-checks.
type ActiveTrace struct {
	tracer  *Tracer
	op      string
	traceID uint64
	start   time.Time
	spans   []Span // first[:n] until a ninth span moves them out
	first   [inlineSpans]Span
	dropped int
}

// SetTraceID tags the trace with a wire trace id. No-op on a nil
// trace.
func (a *ActiveTrace) SetTraceID(id uint64) {
	if a != nil {
		a.traceID = id
	}
}

// SpanToken marks an open span; close it with End. The zero token
// (from a nil trace) is valid and inert.
type SpanToken struct {
	at    *ActiveTrace
	idx   int
	start time.Time
}

// BeginSpan opens a named span. On a nil trace it returns an inert
// token.
func (a *ActiveTrace) BeginSpan(name string) SpanToken {
	if a == nil {
		return SpanToken{}
	}
	if len(a.spans) >= maxSpans {
		a.dropped++
		return SpanToken{}
	}
	now := time.Now()
	a.spans = append(a.spans, Span{Name: name, Offset: now.Sub(a.start)})
	return SpanToken{at: a, idx: len(a.spans) - 1, start: now}
}

// End closes the span. No-op on an inert token.
func (s SpanToken) End() {
	if s.at == nil {
		return
	}
	s.at.spans[s.idx].Dur = time.Since(s.start)
}

// Finish completes the trace and records it with the tracer. No-op on
// a nil trace.
func (a *ActiveTrace) Finish(err error) {
	if a == nil {
		return
	}
	tr := Trace{
		Op:      a.op,
		TraceID: a.traceID,
		Start:   a.start,
		Dur:     time.Since(a.start),
		Spans:   a.spans,
		Dropped: a.dropped,
	}
	if err != nil {
		tr.Err = err.Error()
	}
	a.tracer.record(tr)
}
