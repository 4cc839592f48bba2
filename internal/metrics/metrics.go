// Package metrics is the observability substrate of the repository: a
// lock-free registry of named counters, gauges and latency histograms,
// a lightweight operation tracer, and exporters in Prometheus text and
// expvar-style JSON formats. It depends only on the standard library.
//
// The package is built around a disabled-by-default fast path: every
// instrument method is safe to call on a nil receiver and does nothing,
// so instrumented code holds a possibly-nil *Counter (or *Histogram,
// *Gauge, *Tracer) and calls it unconditionally — no branches, no
// allocations, near-zero cost when metrics are off. When metrics are
// on, the hot paths (Counter.Add, Gauge.Set, Histogram.Observe) are a
// handful of atomic operations and never take a lock; the registry's
// mutex guards only instrument registration and snapshotting.
//
// Naming follows the Prometheus convention (snake_case, a _total
// suffix for counters, a unit suffix such as _ns for histograms); the
// exporters sanitize any stray characters.
package metrics

import (
	"math"
	"sort"
	"sync"
	"sync/atomic"
)

// Counter is a monotonically increasing value. The zero value is ready
// to use; a nil *Counter ignores all updates.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by n. No-op on a nil receiver, and for
// n = 0 without touching the shared word: most of the page counters an
// operation charges at its end are zero.
func (c *Counter) Add(n int64) {
	if c == nil || n == 0 {
		return
	}
	c.v.Add(n)
}

// Inc increments the counter by one. No-op on a nil receiver.
func (c *Counter) Inc() { c.Add(1) }

// Value returns the current count; 0 on a nil receiver.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. The zero value is ready to
// use; a nil *Gauge ignores all updates.
type Gauge struct {
	bits atomic.Uint64
}

// Set replaces the gauge value. No-op on a nil receiver.
func (g *Gauge) Set(v float64) {
	if g == nil {
		return
	}
	g.bits.Store(math.Float64bits(v))
}

// Value returns the current value; 0 on a nil receiver.
func (g *Gauge) Value() float64 {
	if g == nil {
		return 0
	}
	return math.Float64frombits(g.bits.Load())
}

// Registry is a namespace of instruments. Instruments are created on
// first use and live for the registry's lifetime; looking one up again
// returns the same instance. All methods are safe for concurrent use,
// and every method is safe on a nil *Registry (returning nil
// instruments, which in turn ignore updates) — a disabled metrics
// configuration is simply a nil registry.
type Registry struct {
	mu       sync.RWMutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	funcs    map[string]func() float64
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
		funcs:    make(map[string]func() float64),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	c, ok := r.counters[name]
	r.mu.RUnlock()
	if ok {
		return c
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if c, ok = r.counters[name]; ok {
		return c
	}
	c = &Counter{}
	r.counters[name] = c
	return c
}

// Gauge returns the gauge registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	g, ok := r.gauges[name]
	r.mu.RUnlock()
	if ok {
		return g
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if g, ok = r.gauges[name]; ok {
		return g
	}
	g = &Gauge{}
	r.gauges[name] = g
	return g
}

// Histogram returns the histogram registered under name, creating it
// if needed. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.RLock()
	h, ok := r.hists[name]
	r.mu.RUnlock()
	if ok {
		return h
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if h, ok = r.hists[name]; ok {
		return h
	}
	h = &Histogram{}
	r.hists[name] = h
	return h
}

// GaugeFunc registers fn as a derived gauge: exporters call it at
// collection time, so an existing atomic counter elsewhere can be
// exported without double-counting in its hot path. Re-registering a
// name replaces the function. No-op on a nil registry.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r == nil || fn == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.funcs[name] = fn
}

// names returns the sorted names of one instrument map.
func sortedNames[T any](m map[string]T) []string {
	out := make([]string, 0, len(m))
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}
