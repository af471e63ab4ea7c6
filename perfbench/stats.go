package main

import (
	"math"
	"sort"
	"time"
)

// minBeyond is how many samples must lie beyond a reported percentile:
// a p99 over fewer than 1000 samples is a guess about the few worst
// ones, so the harness refuses to report it.
const minBeyond = 10

// dist is a sorted sample set.
type dist struct{ xs []float64 }

// newDist copies and sorts xs.
func newDist(xs []float64) dist {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return dist{xs: s}
}

// durDist converts durations to a dist in the given unit.
func durDist(ds []time.Duration, unit time.Duration) dist {
	xs := make([]float64, len(ds))
	for i, d := range ds {
		xs[i] = float64(d) / float64(unit)
	}
	return newDist(xs)
}

func (d dist) n() int { return len(d.xs) }

// pct returns the nearest-rank p-quantile (0 < p < 1). ok is false
// unless at least minBeyond samples lie above the reported rank.
func (d dist) pct(p float64) (v float64, ok bool) {
	n := len(d.xs)
	if n == 0 {
		return 0, false
	}
	rank := int(math.Ceil(p * float64(n))) // 1-based
	if rank < 1 {
		rank = 1
	}
	if n-rank < minBeyond {
		return 0, false
	}
	return d.xs[rank-1], true
}

// median is the middle value of xs (mean of the two middle values for
// even counts); it reports per-pass figures, where the ten-beyond rule
// does not apply because each pass is itself an aggregate.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	m := len(s) / 2
	if len(s)%2 == 1 {
		return s[m]
	}
	return (s[m-1] + s[m]) / 2
}
