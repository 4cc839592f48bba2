package metrics

import (
	"context"
	"fmt"
	"sync"
	"testing"
)

// TestTracerConcurrentWraparound drives the trace ring far past its
// capacity from 8 goroutines at once and then checks the invariants a
// consumer of /traces relies on: the ring holds exactly its capacity,
// Recent returns traces newest-first with strictly consecutive
// sequence numbers (ring order == record order), and every trace
// carries its own spans with the correct Dropped count. Run under
// -race this also pins the locking of Begin/BeginSpan/Finish/Recent.
func TestTracerConcurrentWraparound(t *testing.T) {
	const (
		capacity   = 16
		goroutines = 8
		perG       = 100
		spansPer   = maxSpans + 10
	)
	tr := NewTracer(capacity)
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			op := fmt.Sprintf("op%d", g)
			for i := 0; i < perG; i++ {
				at := new(Account)
				at.Begin(tr, op, 0)
				for s := 0; s < spansPer; s++ {
					sp := at.BeginSpan("step", nil)
					sp.End()
				}
				// Readers race the writers on purpose.
				if i%10 == 0 {
					tr.Recent(4)
				}
				at.Finish(nil)
			}
		}(g)
	}
	wg.Wait()

	got := tr.Recent(10 * capacity)
	if len(got) != capacity {
		t.Fatalf("ring holds %d traces, want %d", len(got), capacity)
	}
	if got[0].Seq != goroutines*perG {
		t.Fatalf("newest Seq = %d, want %d (every Finish must be recorded exactly once)",
			got[0].Seq, goroutines*perG)
	}
	for i := 1; i < len(got); i++ {
		if got[i].Seq != got[i-1].Seq-1 {
			t.Fatalf("ring order broken at %d: Seq %d follows %d (want strictly consecutive newest-first)",
				i, got[i].Seq, got[i-1].Seq)
		}
	}
	for _, rec := range got {
		if len(rec.Spans) != maxSpans {
			t.Fatalf("trace #%d kept %d spans, want %d", rec.Seq, len(rec.Spans), maxSpans)
		}
		if rec.Dropped != spansPer-maxSpans {
			t.Fatalf("trace #%d Dropped = %d, want %d", rec.Seq, rec.Dropped, spansPer-maxSpans)
		}
	}
}

// TestTracerSelectFiltering covers the /traces?trace=&op= path: traces
// tagged with a context trace id are retrievable by that id, and op
// filtering composes with the limit.
func TestTracerSelectFiltering(t *testing.T) {
	tr := NewTracer(32)
	ctx := WithTraceID(context.Background(), 0xABCD)
	if got := TraceIDFrom(ctx); got != 0xABCD {
		t.Fatalf("TraceIDFrom = %#x, want 0xabcd", got)
	}
	if got := TraceIDFrom(context.Background()); got != 0 {
		t.Fatalf("TraceIDFrom(background) = %#x, want 0", got)
	}

	record := func(ctx context.Context, op string) {
		var at Account
		at.Begin(tr, op, TraceIDFrom(ctx))
		at.Finish(nil)
	}
	for i := 0; i < 5; i++ {
		record(context.Background(), "find")
	}
	record(ctx, "find")
	record(ctx, "apply")

	byID := tr.Select(100, TraceFilter{TraceID: 0xABCD})
	if len(byID) != 2 {
		t.Fatalf("Select by trace id returned %d traces, want 2", len(byID))
	}
	if byID[0].Op != "apply" || byID[1].Op != "find" {
		t.Fatalf("Select order = %s,%s, want apply,find (newest first)", byID[0].Op, byID[1].Op)
	}
	both := tr.Select(100, TraceFilter{TraceID: 0xABCD, Op: "find"})
	if len(both) != 1 || both[0].TraceID != 0xABCD {
		t.Fatalf("Select by id+op = %+v, want one find tagged 0xabcd", both)
	}
	limited := tr.Select(3, TraceFilter{Op: "find"})
	if len(limited) != 3 {
		t.Fatalf("Select limit returned %d, want 3", len(limited))
	}
	// A nil tracer stays inert through the new paths too.
	var nilT *Tracer
	if nilT.Select(5, TraceFilter{}) != nil || nilT.Capacity() != 0 {
		t.Fatal("nil tracer Select/Capacity not inert")
	}
	var at Account
	at.Begin(nilT, "x", TraceIDFrom(ctx))
	at.Finish(nil) // must not panic
}
