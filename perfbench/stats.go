package main

import (
	"math"
	"sort"
	"time"
)

// quantile returns the q-quantile (0 ≤ q ≤ 1) of sorted values by
// linear interpolation between the two nearest ranks. It returns NaN
// for an empty slice.
func quantile(sorted []float64, q float64) float64 {
	n := len(sorted)
	if n == 0 {
		return math.NaN()
	}
	pos := q * float64(n-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	if lo == hi {
		return sorted[lo]
	}
	frac := pos - float64(lo)
	return sorted[lo]*(1-frac) + sorted[hi]*frac
}

// sortedCopy returns vals sorted ascending, leaving vals untouched.
func sortedCopy(vals []float64) []float64 {
	out := append([]float64(nil), vals...)
	sort.Float64s(out)
	return out
}

// median is the 0.5-quantile of unsorted values.
func median(vals []float64) float64 { return quantile(sortedCopy(vals), 0.5) }

// tailLadder lists the percentiles a tail timing may be reported at,
// highest first.
var tailLadder = []float64{0.999, 0.99, 0.9, 0.5}

// minBeyond is how many samples must lie above a reported percentile.
const minBeyond = 10

// tailPercentile picks the highest percentile on the ladder that has at
// least minBeyond samples beyond it and returns it with its value. ok
// is false when even the median lacks that support.
func tailPercentile(sorted []float64) (p, v float64, ok bool) {
	n := float64(len(sorted))
	for _, q := range tailLadder {
		if n*(1-q)+1e-9 >= minBeyond { // 1e-9 absorbs rounding in 1-q
			return q, quantile(sorted, q), true
		}
	}
	return 0, math.NaN(), false
}

// slices is how many consecutive slices of a run its latency
// percentiles are taken over.
const slices = 10

// slicedQuantile splits vals, in issue order, into `slices`
// consecutive slices of equal count and returns the median of the
// slices' q-quantiles. A short burst of host noise then moves one
// slice's percentile, not the run's figure, while a slowdown that lasts
// the whole run moves every slice. With fewer than `slices` values it
// is the plain quantile.
func slicedQuantile(vals []float64, q float64) float64 {
	return median(sliceQuantiles(vals, q))
}

// sliceQuantiles returns the q-quantile of each slice of vals.
func sliceQuantiles(vals []float64, q float64) []float64 {
	if len(vals) < slices {
		return []float64{quantile(sortedCopy(vals), q)}
	}
	per := make([]float64, slices)
	for k := range per {
		lo, hi := k*len(vals)/slices, (k+1)*len(vals)/slices
		per[k] = quantile(sortedCopy(vals[lo:hi]), q)
	}
	return per
}

// durationsMS converts durations to float milliseconds.
func durationsMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	return out
}

// mean returns the arithmetic mean (0 for no values).
func mean(vals []float64) float64 {
	if len(vals) == 0 {
		return 0
	}
	s := 0.0
	for _, v := range vals {
		s += v
	}
	return s / float64(len(vals))
}
