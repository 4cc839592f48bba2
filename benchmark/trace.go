package main

import (
	"fmt"
	"io"
	"path/filepath"
	"time"
)

// span is one timed call the harness made into a layer. Spans of one
// replayed op share Op; Parent is the index of the span that caused
// this one (-1 for the op's own root span). Times are nanoseconds
// since the trace began.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int32  `json:"parent"`
	Op     int32  `json:"op"`
}

// tracer keeps spans in memory; they are written out when the run
// ends. It is used from one goroutine only: the traced replay has one
// client, and the probe stack runs without prefetch workers, so the
// storage wrapper's spans are recorded on the client's own goroutine.
// A nil tracer records nothing.
type tracer struct {
	t0    time.Time
	spans []span
	open  []int32 // indexes of the spans begun and not ended yet
	op    int32
}

func newTracer(capacity int) *tracer {
	return &tracer{t0: time.Now(), spans: make([]span, 0, capacity), op: -1}
}

// beginOp starts the root span of the next op.
func (t *tracer) beginOp(name string) int32 {
	if t == nil {
		return -1
	}
	t.op++
	return t.begin(name)
}

func (t *tracer) begin(name string) int32 {
	if t == nil {
		return -1
	}
	parent := int32(-1)
	if n := len(t.open); n > 0 {
		parent = t.open[n-1]
	}
	i := int32(len(t.spans))
	t.spans = append(t.spans, span{Name: name, Parent: parent, Op: t.op})
	t.open = append(t.open, i)
	t.spans[i].Start = time.Since(t.t0).Nanoseconds()
	return i
}

func (t *tracer) end(i int32) {
	if t == nil {
		return
	}
	t.spans[i].End = time.Since(t.t0).Nanoseconds()
	t.open = t.open[:len(t.open)-1]
}

// opTimes is what the spans of one op add up to: per span name, the
// total duration and the total self time (duration minus the part the
// span's children cover).
type opTimes struct {
	dur, self map[string]int64
}

// perOp folds the spans into one opTimes per op whose root span is
// named root, in op order.
func (t *tracer) perOp(root string) []opTimes {
	childSum := make([]int64, len(t.spans))
	for _, s := range t.spans {
		if s.Parent >= 0 {
			childSum[s.Parent] += s.End - s.Start
		}
	}
	var out []opTimes
	keep := false
	for i, s := range t.spans {
		if s.Parent < 0 {
			if keep = s.Name == root; keep {
				out = append(out, opTimes{dur: map[string]int64{}, self: map[string]int64{}})
			}
		}
		if !keep {
			continue
		}
		o := &out[len(out)-1]
		o.dur[s.Name] += s.End - s.Start
		o.self[s.Name] += s.End - s.Start - childSum[i]
	}
	return out
}

// durations returns every duration of the spans called name.
func (t *tracer) durations(name string) samples {
	var out samples
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s.End-s.Start)
		}
	}
	return out
}

// traceFile is what a traced run writes to out/trace-<workload>.json.
type traceFile struct {
	Workload string      `json:"workload"`
	Seed     int64       `json:"seed"`
	Spans    []span      `json:"spans"`
	Budget   []budgetRow `json:"budget"`
}

func (t *tracer) write(out, workload string, seed int64, budget []budgetRow) error {
	return writeJSON(filepath.Join(out, "trace-"+workload+".json"),
		traceFile{Workload: workload, Seed: seed, Spans: t.spans, Budget: budget})
}

// budgetRow is one row of the Find budget table: a layer and the
// median, over the traced Finds, of the time spent in that layer
// itself.
type budgetRow struct {
	Layer  string  `json:"layer"`
	SelfNS float64 `json:"self_ns_p50"`
}

// clampedDiff is a-b, or 0 where separately replayed calls cost more
// than the call that contains them.
func clampedDiff(a, b int64) int64 {
	if a < b {
		return 0
	}
	return a - b
}

// findBudget builds the Find budget of an in-process workload from
// the traced replay. The root store's pass timed Store.Find
// (ccam.find); the probe stack's pass timed, per op and one after the
// other, the same lookup on netfile.File (netfile.find, whose page
// reads show up as storage.checked_read around storage.read) and then
// the pieces of that lookup on their own: btree.get, buffer.fetch (a
// hit: the page was just read) and netfile.decode. What the root call
// costs beyond the probe stack's is the facade's; what the probe
// stack's call costs beyond its pieces and its reads stays with
// netfile.
func findBudget(t *tracer) []budgetRow {
	ops := t.perOp("probe.find")
	rows := []struct {
		layer string
		of    func(o opTimes) int64
	}{
		{"netfile (rest of Find)", func(o opTimes) int64 {
			return clampedDiff(o.self["netfile.find"], o.dur["btree.get"]+o.dur["buffer.fetch"]+o.dur["netfile.decode"])
		}},
		{"btree (index descent)", func(o opTimes) int64 { return o.dur["btree.get"] }},
		{"buffer (fetch, hit path)", func(o opTimes) int64 { return o.dur["buffer.fetch"] }},
		{"netfile (record decode)", func(o opTimes) int64 { return o.dur["netfile.decode"] }},
		{"storage (checksum)", func(o opTimes) int64 { return o.self["storage.checked_read"] }},
		{"storage (page read)", func(o opTimes) int64 { return o.dur["storage.read"] }},
	}
	facade := t.durations("ccam.find").quantile(0.5) - t.durations("netfile.find").quantile(0.5)
	if facade < 0 {
		facade = 0
	}
	out := []budgetRow{{Layer: "ccam (facade)", SelfNS: facade}}
	for _, r := range rows {
		vals := make(samples, len(ops))
		for j, o := range ops {
			vals[j] = r.of(o)
		}
		out = append(out, budgetRow{Layer: r.layer, SelfNS: vals.quantile(0.5)})
	}
	return out
}

func budgetSum(rows []budgetRow) float64 {
	var sum float64
	for _, r := range rows {
		sum += r.SelfNS
	}
	return sum
}

// unattributedShare is the part of the untraced Find median the rows
// do not account for (or over-account for), as a share of it.
func unattributedShare(rows []budgetRow, untracedNS float64) float64 {
	if untracedNS <= 0 {
		return 0
	}
	d := untracedNS - budgetSum(rows)
	if d < 0 {
		d = -d
	}
	return d / untracedNS
}

func printBudget(w io.Writer, workload string, rows []budgetRow, untracedNS float64) {
	width := len("untraced find_p50")
	for _, r := range rows {
		width = max(width, len(r.Layer))
	}
	fmt.Fprintf(w, "  Find budget on %s (self time per layer, p50 over the traced Finds):\n", workload)
	for _, r := range rows {
		fmt.Fprintf(w, "    %-*s %10.0f ns\n", width, r.Layer, r.SelfNS)
	}
	fmt.Fprintf(w, "    %-*s %10.0f ns\n", width, "sum of rows", budgetSum(rows))
	fmt.Fprintf(w, "    %-*s %10.0f ns  (unattributed share %.3f)\n", width, "untraced find_p50", untracedNS,
		unattributedShare(rows, untracedNS))
}
