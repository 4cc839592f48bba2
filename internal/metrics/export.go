package metrics

import (
	"encoding/json"
	"fmt"
	"io"
	"strings"
)

// sanitizeName maps a metric name onto the Prometheus charset
// [a-zA-Z0-9_:], replacing every other rune with '_'.
func sanitizeName(name string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z',
			r >= '0' && r <= '9', r == '_', r == ':':
			return r
		default:
			return '_'
		}
	}, name)
}

// WriteTo renders every instrument in the Prometheus text exposition
// format (version 0.0.4), implementing io.WriterTo: counters and
// gauges as single samples, histograms as cumulative _bucket series
// with power-of-two le boundaries plus _sum and _count. Output is
// sorted by name, so equal registries produce byte-equal dumps. A nil
// registry writes nothing.
func (r *Registry) WriteTo(w io.Writer) (int64, error) {
	if r == nil {
		return 0, nil
	}
	cw := &countingWriter{w: w}
	for _, c := range sorted(r, r.counters) {
		n := sanitizeName(c.name)
		fmt.Fprintf(cw, "# TYPE %s counter\n%s %d\n", n, n, c.v.Value())
	}
	for _, g := range sorted(r, r.gauges) {
		n := sanitizeName(g.name)
		fmt.Fprintf(cw, "# TYPE %s gauge\n%s %g\n", n, n, g.v.Value())
	}
	for _, h := range sorted(r, r.hists) {
		n := sanitizeName(h.name)
		s := h.v.Snapshot()
		fmt.Fprintf(cw, "# TYPE %s histogram\n", n)
		var cum int64
		for i, c := range s.Buckets {
			if c == 0 {
				continue
			}
			cum += c
			_, hi := bucketBounds(i)
			fmt.Fprintf(cw, "%s_bucket{le=\"%d\"} %d\n", n, hi, cum)
		}
		fmt.Fprintf(cw, "%s_bucket{le=\"+Inf\"} %d\n", n, s.Count)
		fmt.Fprintf(cw, "%s_sum %d\n", n, s.Sum)
		fmt.Fprintf(cw, "%s_count %d\n", n, s.Count)
	}
	return cw.n, cw.err
}

// countingWriter tracks bytes written and the first error, so WriteTo
// can use fmt.Fprintf freely.
type countingWriter struct {
	w   io.Writer
	n   int64
	err error
}

func (c *countingWriter) Write(p []byte) (int, error) {
	if c.err != nil {
		return 0, c.err
	}
	n, err := c.w.Write(p)
	c.n += int64(n)
	c.err = err
	return n, err
}

// histJSON is the JSON shape of one histogram summary.
type histJSON struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Mean  float64 `json:"mean"`
	P50   int64   `json:"p50"`
	P95   int64   `json:"p95"`
	P99   int64   `json:"p99"`
}

// String renders the registry as a JSON object — counters and gauges
// as numbers, histograms as {count, sum, mean, p50, p95, p99}
// summaries — which makes *Registry an expvar.Var: publish it with
// expvar.Publish("ccam", reg) and it appears under /debug/vars.
// A nil registry renders as {}.
func (r *Registry) String() string {
	m := r.exportMap()
	b, err := json.Marshal(m)
	if err != nil {
		return "{}"
	}
	return string(b)
}

// exportMap builds the name → value view behind String.
func (r *Registry) exportMap() map[string]any {
	m := map[string]any{}
	if r == nil {
		return m
	}
	for _, c := range sorted(r, r.counters) {
		m[c.name] = c.v.Value()
	}
	for _, g := range sorted(r, r.gauges) {
		m[g.name] = g.v.Value()
	}
	for _, h := range sorted(r, r.hists) {
		s := h.v.Snapshot()
		m[h.name] = histJSON{
			Count: s.Count, Sum: s.Sum, Mean: s.Mean(),
			P50: s.P50(), P95: s.P95(), P99: s.P99(),
		}
	}
	return m
}
