package main

import (
	"math"
	"time"
)

// The sandbox this benchmark runs in shares its host: everything that
// misses the processor's caches — the store's whole read path, the
// collector, a build — runs up to a third slower for seconds or minutes
// at a time while a neighbour is busy, and a slow spell outlasts any
// run that fits the driver's budget (see README.md, "Reference
// speed"). No estimator inside one run averages that out, so the
// harness measures it: between the pieces of every measured stretch it
// runs slices of a small kernel of its own whose work never changes
// (random lookups in a table of records, each copied into a fresh
// allocation — what a read path does), and every time and rate of the
// stretch is scaled by how much slower than calRefNS per step the
// kernel ran beside it. A reported microsecond is a microsecond at the
// speed at which the kernel takes calRefNS per step.
//
// The kernel is the harness's own code and touches nothing of the
// program under test, so a change to the program cannot move it; it is
// frozen with the benchmark.

const (
	// calRecords is the size of the kernel's table: about 8 MB of
	// records behind a map, beyond the processor's second-level cache
	// like the store's own working set.
	calRecords = 65000
	// calSteps is the length of one slice: about 2 ms.
	calSteps = 8192
	// calRefNS is the kernel's cost per step at reference speed.
	calRefNS = 250.0
)

// No metric leans into a slow spell exactly as far as the kernel does:
// part of its time is not memory's (a commit waits for an fsync, a
// saturated server for the scheduler), or is memory's in another way
// (the store's hot pages stay in a cache the kernel's table does not
// fit). A time is therefore divided by slowdown^lean. The leans were
// fitted once, series of ten runs by series over several spells, as
// the exponent that left the least spread, and are frozen with the
// kernel (see README.md, "Reference speed"): with 1 an Apply that the
// clock read 1.25x slower in a spell where the kernel ran 1.6x slower
// would be reported a fifth faster than at reference speed.
const (
	// readLean is for read latencies and ops_per_s scaled by the memory
	// kernel, writeLean for apply_p50_us and apply_ops_per_s everywhere.
	readLean  = 0.8
	writeLean = 0.65
	// midLean and satLean are for the served phases, scaled by the echo:
	// latencies at the mid rate, ops_per_s at saturation.
	midLean = 1.0
	satLean = 0.65
	// setupLean scales setup_s, by the slowdown of the window that
	// follows the set-ups: a set-up is seconds of one call with no place
	// for a slice inside it, and a spell outlasts a run.
	setupLean = 0.6
)

type calRecord struct {
	id   int
	succ []int
	pad  [4]int
}

// calibrator runs kernel slices and keeps their costs until the
// stretch they belong to ends. It is used by one goroutine at a time.
type calibrator struct {
	table map[int]*calRecord
	x     uint64
	sink  uint64
	ns    []float64 // cost per step of the slices taken since slowdown
	spent time.Duration
}

func newCalibrator() *calibrator {
	c := &calibrator{table: make(map[int]*calRecord, calRecords), x: 88172645463325252}
	for i := 0; i < calRecords; i++ {
		c.table[i] = &calRecord{id: i, succ: []int{i, i + 1, i + 2}}
	}
	// The first slices fault the table in; they are not kept.
	c.take(4)
	c.slowdown()
	return c
}

// take runs n slices.
func (c *calibrator) take(n int) {
	for ; n > 0; n-- {
		t0 := time.Now()
		x := c.x
		for i := 0; i < calSteps; i++ {
			x ^= x << 13
			x ^= x >> 7
			x ^= x << 17
			src := c.table[int(x%calRecords)]
			cp := &calRecord{id: src.id, succ: append([]int(nil), src.succ...)}
			c.sink += uint64(cp.succ[0])
		}
		c.x = x
		d := time.Since(t0)
		c.spent += d
		c.ns = append(c.ns, float64(d.Nanoseconds())/calSteps)
	}
}

// slowdown closes a stretch: it returns how much slower than reference
// speed the median slice taken since the last call ran (1 at reference
// speed, above 1 in a slow spell), and forgets those slices.
func (c *calibrator) slowdown() float64 { return slowdownOf(c.drain()) }

// drain returns the costs of the slices taken since the last call and
// forgets them.
func (c *calibrator) drain() []float64 {
	ns := append([]float64(nil), c.ns...)
	c.ns = c.ns[:0]
	return ns
}

// slowdownOf is the slowdown a set of slice costs stands for.
func slowdownOf(ns []float64) float64 {
	if len(ns) == 0 {
		return 1
	}
	return medianOf(ns) / calRefNS
}

// kernelTime returns the time spent in slices since the last call.
func (c *calibrator) kernelTime() time.Duration {
	d := c.spent
	c.spent = 0
	return d
}

// segment is one calibrated stretch of a run: what the clients
// measured during it and how slow the sandbox was meanwhile.
type segment struct {
	read, write, query *clientStats
	slow               float64
}

// factor is what a time of the segment is divided by for a metric
// that leans by lean.
func (sg *segment) factor(lean float64) float64 { return math.Pow(sg.slow, lean) }

// atRefSpeed returns the median over the segments of a kind's p50
// latency scaled to reference speed, in ns, and the unscaled median
// beside it. Segments without a sample of the kind are left out.
func atRefSpeed(segs []*segment, pick func(*segment) *clientStats, kind opKind, lean float64) (scaled, raw float64) {
	var sv, rv []float64
	for _, sg := range segs {
		st := pick(sg)
		if st == nil || st.samples(kind) == 0 {
			continue
		}
		p := st.quantile(kind, 0.50)
		sv = append(sv, p/sg.factor(lean))
		rv = append(rv, p)
	}
	return medianOf(sv), medianOf(rv)
}

// rateAtRefSpeed returns every op the picked clients completed over
// all the time they measured, that time scaled segment by segment to
// reference speed, and the unscaled rate beside it. Nothing is left
// out: a collector cycle, a checkpoint or a stalled reader is the
// store's own cost and lowers the rate like any other time spent.
func rateAtRefSpeed(segs []*segment, pick func(*segment) *clientStats, lean float64) (scaled, raw float64) {
	var ops int64
	var st, rt float64
	for _, sg := range segs {
		c := pick(sg)
		if c == nil {
			continue
		}
		ops += c.ops
		st += c.measured.Seconds() / sg.factor(lean)
		rt += c.measured.Seconds()
	}
	if st <= 0 {
		return 0, 0
	}
	return float64(ops) / st, float64(ops) / rt
}

// pooled merges the picked stats of all segments: sample counts and
// the tails, which are reported unscaled beside the metrics.
func pooled(segs []*segment, pick func(*segment) *clientStats) *clientStats {
	out := new(clientStats)
	for _, sg := range segs {
		if c := pick(sg); c != nil {
			out.extend(c)
		}
	}
	return out
}

// medianSlow is the median slowdown over segments.
func medianSlow(segs []*segment) float64 {
	var v []float64
	for _, sg := range segs {
		v = append(v, sg.slow)
	}
	return medianOf(v)
}

func readOf(s *segment) *clientStats  { return s.read }
func writeOf(s *segment) *clientStats { return s.write }
func queryOf(s *segment) *clientStats { return s.query }
