package metrics

import (
	"strings"
	"sync"
	"testing"
	"time"
)

func TestNilRegistryAndInstrumentsAreInert(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("y")
	h := r.Histogram("z")
	if c != nil || g != nil || h != nil {
		t.Fatalf("nil registry returned non-nil instruments: %v %v %v", c, g, h)
	}
	// None of these may panic.
	c.Add(3)
	c.Inc()
	g.Set(1.5)
	h.Observe(7)
	h.ObserveSince(time.Now())
	r.GaugeFunc("f", func() float64 { return 1 })
	r.CounterFunc("fc", func() int64 { return 1 })
	if c.Value() != 0 || g.Value() != 0 || h.Count() != 0 {
		t.Fatal("nil instruments reported non-zero values")
	}
	if n, err := r.WriteTo(&strings.Builder{}); n != 0 || err != nil {
		t.Fatalf("nil registry WriteTo = (%d, %v)", n, err)
	}
	if s := r.String(); s != "{}" {
		t.Fatalf("nil registry String() = %q", s)
	}
}

func TestRegistryReturnsSameInstrument(t *testing.T) {
	r := NewRegistry()
	if r.Counter("a") != r.Counter("a") {
		t.Fatal("two lookups of one counter differ")
	}
	if r.Gauge("a") != r.Gauge("a") {
		t.Fatal("two lookups of one gauge differ")
	}
	if r.Histogram("a") != r.Histogram("a") {
		t.Fatal("two lookups of one histogram differ")
	}
	r.Counter("a").Add(2)
	r.Counter("a").Inc()
	if got := r.Counter("a").Value(); got != 3 {
		t.Fatalf("counter = %d, want 3", got)
	}
	r.Gauge("g").Set(0.25)
	if got := r.Gauge("g").Value(); got != 0.25 {
		t.Fatalf("gauge = %g, want 0.25", got)
	}
}

// A func-backed counter or gauge is an ordinary instrument of its kind:
// a lookup by name returns it, its Value reads the source, an update
// to it is lost, and the exporters render it under its own type.
func TestFuncBackedInstruments(t *testing.T) {
	r := NewRegistry()
	var count int64 = 5
	level := 0.5
	r.CounterFunc("src_total", func() int64 { return count })
	r.GaugeFunc("src_level", func() float64 { return level })
	c, g := r.Counter("src_total"), r.Gauge("src_level")
	if c.Value() != 5 || g.Value() != 0.5 {
		t.Fatalf("func-backed counter/gauge read %d/%g, want 5/0.5", c.Value(), g.Value())
	}
	count, level = 7, 0.25
	c.Add(100)
	g.Set(9)
	if c.Value() != 7 || g.Value() != 0.25 || r.Counter("src_total") != c || r.Gauge("src_level") != g {
		t.Fatalf("after the sources moved: %d/%g, want 7/0.25 from the same instruments", c.Value(), g.Value())
	}
	var sb strings.Builder
	if _, err := r.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	const want = "# TYPE src_total counter\nsrc_total 7\n# TYPE src_level gauge\nsrc_level 0.25\n"
	if sb.String() != want {
		t.Fatalf("exposition:\n%s\nwant:\n%s", sb.String(), want)
	}
	// Re-registering replaces the instrument under the name.
	r.CounterFunc("src_total", func() int64 { return 1 })
	if got := r.Counter("src_total").Value(); got != 1 {
		t.Fatalf("re-registered counter reads %d, want 1", got)
	}
}

// The exporters call an instrument's function after releasing the
// registry's lock, so the function may use the registry itself (or
// take a lock that is held while instruments are registered).
func TestFuncsRunOutsideTheRegistryLock(t *testing.T) {
	r := NewRegistry()
	r.GaugeFunc("g", func() float64 {
		r.Counter("made_while_scraping").Inc()
		return 1
	})
	r.CounterFunc("c_total", func() int64 {
		r.GaugeFunc("also_made_while_scraping", func() float64 { return 2 })
		return 1
	})
	done := make(chan string)
	go func() {
		var sb strings.Builder
		r.WriteTo(&sb)
		done <- r.String()
	}()
	select {
	case <-done:
	case <-time.After(10 * time.Second):
		t.Fatal("a scrape whose funcs register instruments did not finish: the registry lock is held across the funcs")
	}
	if r.Counter("made_while_scraping").Value() != 2 {
		t.Fatalf("the gauge's function ran %d times over two scrapes, want 2", r.Counter("made_while_scraping").Value())
	}
}

func TestRegistryConcurrentGetOrCreate(t *testing.T) {
	r := NewRegistry()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 1000; j++ {
				r.Counter("shared").Inc()
			}
		}()
	}
	wg.Wait()
	if got := r.Counter("shared").Value(); got != 8000 {
		t.Fatalf("shared counter = %d, want 8000", got)
	}
}

func TestTracerRingAndSpans(t *testing.T) {
	tr := NewTracer(4)
	for i := 0; i < 6; i++ {
		at := new(Account)
		at.Begin(tr, "op", 0)
		tok := at.BeginSpan("step", nil)
		tok.End()
		at.Finish(nil)
	}
	recent := tr.Recent(10)
	if len(recent) != 4 {
		t.Fatalf("ring kept %d traces, want 4", len(recent))
	}
	if recent[0].Seq != 6 || recent[3].Seq != 3 {
		t.Fatalf("newest-first order broken: seqs %d..%d", recent[0].Seq, recent[3].Seq)
	}
	if len(recent[0].Spans) != 1 || recent[0].Spans[0].Name != "step" {
		t.Fatalf("spans not recorded: %+v", recent[0].Spans)
	}
	var sb strings.Builder
	if _, err := tr.WriteTo(&sb); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(sb.String(), "op") || !strings.Contains(sb.String(), "[step") {
		t.Fatalf("trace dump missing fields: %q", sb.String())
	}
}

func TestNilTracerIsInert(t *testing.T) {
	var tr *Tracer
	at := new(Account)
	at.Begin(tr, "op", 0)
	tok := at.BeginSpan("s", nil)
	tok.End()
	at.Finish(nil)
	// An operation charged to nobody counts into a nil account.
	var none *Account
	none.BeginSpan("s", nil).End()
	none.Finish(nil)
	if got := tr.Recent(5); got != nil {
		t.Fatalf("nil tracer Recent = %v", got)
	}
}

// A span handed a histogram observes into it the interval the span
// records, from the same clock reads — on an account no tracer records
// too, and past the span cap.
func TestSpanObservesHistogram(t *testing.T) {
	h := new(Histogram)
	tr := NewTracer(1)
	at := new(Account)
	at.Begin(tr, "op", 0)
	tok := at.BeginSpan("storage.read", h)
	time.Sleep(time.Millisecond)
	tok.End()
	at.Finish(nil)
	sp := tr.Recent(1)[0].Spans
	if snap := h.Snapshot(); len(sp) != 1 || snap.Count != 1 || snap.Sum != int64(sp[0].Dur) || sp[0].Dur < time.Millisecond {
		t.Fatalf("span %+v, histogram count=%d sum=%d: want one observation of the span's duration", sp, snap.Count, snap.Sum)
	}
	var none *Account
	none.BeginSpan("storage.read", h).End()
	wide := new(Account)
	wide.Begin(tr, "wide", 0)
	for i := 0; i < maxSpans+1; i++ {
		wide.BeginSpan("s", h).End()
	}
	if n := h.Count(); n != 1+1+maxSpans+1 {
		t.Fatalf("histogram count = %d, want %d", n, 1+1+maxSpans+1)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer(1)
	at := new(Account)
	at.Begin(tr, "wide", 0)
	for i := 0; i < maxSpans+5; i++ {
		at.BeginSpan("s", nil).End()
	}
	at.Finish(nil)
	got := tr.Recent(1)[0]
	if len(got.Spans) != maxSpans || got.Dropped != 5 {
		t.Fatalf("spans=%d dropped=%d, want %d and 5", len(got.Spans), got.Dropped, maxSpans)
	}
}

// Tracing has a budget: an operation with at most inlineSpans spans
// costs one allocation, the Account itself — its spans live in the
// trace's own array and are copied into storage the ring slot already
// owns. A slot recycled later must not disturb a trace handed out
// before.
func TestTracedOpAllocatesOnce(t *testing.T) {
	tr := NewTracer(4)
	op := func() {
		at := new(Account)
		at.Begin(tr, "find", 0)
		for i := 0; i < inlineSpans; i++ {
			at.BeginSpan("buffer.fetch", nil).End()
		}
		at.Finish(nil)
	}
	for i := 0; i < 2*tr.Capacity(); i++ { // every slot has storage now
		op()
	}
	if got := testing.AllocsPerRun(100, op); got != 1 {
		t.Fatalf("a traced op with %d spans allocates %v times, want 1", inlineSpans, got)
	}

	kept := tr.Recent(1)
	at := new(Account)
	at.Begin(tr, "route", 0)
	at.BeginSpan("storage.read", nil).End()
	for i := 0; i < tr.Capacity(); i++ {
		at.Finish(nil)
	}
	if len(kept) != 1 || kept[0].Op != "find" || len(kept[0].Spans) != inlineSpans || kept[0].Spans[0].Name != "buffer.fetch" {
		t.Fatalf("a returned trace changed when its slot was reused: %+v", kept)
	}
}
