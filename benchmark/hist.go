package main

import (
	"math/bits"
	"sort"
)

// hist is a fixed-size log-linear histogram of nanosecond samples:
// 128 sub-buckets per power of two, so a bucket is at most 0.8% wide,
// and quantiles are interpolated inside the bucket. Its size does not
// depend on how many samples it holds — a faster store must not make
// the harness (and so rss_peak_mb) bigger.
type hist struct {
	counts [histBuckets]uint32
	n      uint64
}

const (
	histSubBits = 7
	histSub     = 1 << histSubBits
	// 2^42 ns is over an hour; longer samples land in the last bucket.
	histMaxExp  = 42
	histBuckets = (histMaxExp - histSubBits + 2) << histSubBits
)

func histIndex(v uint64) int {
	if v < histSub {
		return int(v)
	}
	e := bits.Len64(v) - 1
	if e > histMaxExp {
		return histBuckets - 1
	}
	return (e-histSubBits+1)<<histSubBits + int(v>>(e-histSubBits))&(histSub-1)
}

// histBounds returns the lowest value and the width of bucket i.
func histBounds(i int) (lo, width float64) {
	if i < histSub {
		return float64(i), 1
	}
	e := i>>histSubBits + histSubBits - 1
	w := uint64(1) << (e - histSubBits)
	return float64(uint64(1)<<e + uint64(i&(histSub-1))*w), float64(w)
}

func (h *hist) add(ns int64) {
	if ns < 0 {
		ns = 0
	}
	h.counts[histIndex(uint64(ns))]++
	h.n++
}

func (h *hist) merge(o *hist) {
	for i, c := range o.counts {
		h.counts[i] += c
	}
	h.n += o.n
}

// quantile returns the q-quantile in ns (0 with no samples).
func (h *hist) quantile(q float64) float64 {
	if h.n == 0 {
		return 0
	}
	rank := q * float64(h.n-1)
	var before float64
	for i, c := range h.counts {
		if c == 0 {
			continue
		}
		if before+float64(c) > rank {
			lo, w := histBounds(i)
			return lo + w*(rank-before+0.5)/float64(c)
		}
		before += float64(c)
	}
	lo, w := histBounds(histBuckets - 1)
	return lo + w
}

// samples keeps raw nanosecond samples for the probes, whose sample
// counts are fixed and small; the untraced runs use hist.
type samples []int64

func (s samples) quantile(q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	c := append(samples(nil), s...)
	sort.Slice(c, func(i, j int) bool { return c[i] < c[j] })
	rank := q * float64(len(c)-1)
	i := int(rank)
	if i+1 >= len(c) {
		return float64(c[len(c)-1])
	}
	f := rank - float64(i)
	return float64(c[i])*(1-f) + float64(c[i+1])*f
}

func (s samples) mean() float64 {
	if len(s) == 0 {
		return 0
	}
	var t int64
	for _, v := range s {
		t += v
	}
	return float64(t) / float64(len(s))
}
