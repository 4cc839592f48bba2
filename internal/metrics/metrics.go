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
// to use; a nil *Counter ignores all updates. A func-backed counter
// (Registry.CounterFunc) reads a count kept elsewhere: Value calls its
// function, and an Add to it is lost.
type Counter struct {
	v  atomic.Int64
	fn func() int64
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
	if c.fn != nil {
		return c.fn()
	}
	return c.v.Load()
}

// Gauge is an instantaneous float64 value. The zero value is ready to
// use; a nil *Gauge ignores all updates. A func-backed gauge
// (Registry.GaugeFunc) reads state kept elsewhere: Value calls its
// function, and a Set on it is lost.
type Gauge struct {
	bits atomic.Uint64
	fn   func() float64
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
	if g.fn != nil {
		return g.fn()
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
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.counters, name)
}

// Gauge returns the gauge registered under name, creating it if
// needed. Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.gauges, name)
}

// Histogram returns the histogram registered under name, creating it
// if needed. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	return getOrCreate(r, r.hists, name)
}

// CounterFunc registers under name a counter that reads fn: a count
// kept elsewhere is exported without a second copy that its hot path
// must also bump. Value and the exporters call fn, the exporters after
// releasing the registry's lock, so fn may take locks of its own.
// Re-registering a name replaces the instrument; one looked up before
// keeps its old source. No-op on a nil registry or a nil fn.
func (r *Registry) CounterFunc(name string, fn func() int64) {
	if r != nil && fn != nil {
		register(r, r.counters, name, &Counter{fn: fn})
	}
}

// GaugeFunc registers under name a gauge that reads fn, the state it
// reports, whenever it is read — as CounterFunc does for counts. No-op
// on a nil registry or a nil fn.
func (r *Registry) GaugeFunc(name string, fn func() float64) {
	if r != nil && fn != nil {
		register(r, r.gauges, name, &Gauge{fn: fn})
	}
}

// getOrCreate returns the instrument of m registered under name,
// creating a zero one if needed.
func getOrCreate[T any](r *Registry, m map[string]*T, name string) *T {
	r.mu.RLock()
	v, ok := m[name]
	r.mu.RUnlock()
	if ok {
		return v
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if v, ok = m[name]; ok {
		return v
	}
	v = new(T)
	m[name] = v
	return v
}

// register sets the instrument of m registered under name to v.
func register[T any](r *Registry, m map[string]*T, name string, v *T) {
	r.mu.Lock()
	defer r.mu.Unlock()
	m[name] = v
}

// named is one registered instrument and its name.
type named[T any] struct {
	name string
	v    *T
}

// sorted copies the instruments of m, sorted by name, under the
// registry's read lock. The caller reads them after the lock is
// released: a func-backed instrument's source may take locks of its
// own, and no lock order may link the registry to them.
func sorted[T any](r *Registry, m map[string]*T) []named[T] {
	r.mu.RLock()
	out := make([]named[T], 0, len(m))
	for k, v := range m {
		out = append(out, named[T]{k, v})
	}
	r.mu.RUnlock()
	sort.Slice(out, func(i, j int) bool { return out[i].name < out[j].name })
	return out
}
