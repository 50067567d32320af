package main

import (
	"math"
	"sort"
	"time"
)

// tailQuantiles are the tail percentiles a timing may be reported at,
// highest first.
var tailQuantiles = []float64{0.999, 0.99, 0.95, 0.9}

// tailQuantile returns the highest tail percentile that has at least ten
// of n samples beyond it, or 0.5 when none has.
func tailQuantile(n int) float64 {
	for _, q := range tailQuantiles {
		if float64(n)*(1-q) >= 10-1e-9 {
			return q
		}
	}
	return 0.5
}

// quantile returns the nearest-rank q-quantile of sorted (0 when empty).
func quantile(sorted []float64, q float64) float64 {
	if len(sorted) == 0 {
		return 0
	}
	i := int(math.Ceil(q*float64(len(sorted)))) - 1
	return sorted[max(0, min(i, len(sorted)-1))]
}

// millis converts durations to sorted milliseconds.
func millis(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = float64(d) / float64(time.Millisecond)
	}
	sort.Float64s(out)
	return out
}

// quartiles returns the first and third quartiles of xs the way Python's
// statistics.quantiles(xs, n=4) does (the "exclusive" method), so the
// spreads the benchmark reports match the ones its bounds are checked by.
func quartiles(xs []float64) (q1, q3 float64) {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0, 0
	}
	if n == 1 {
		return d[0], d[0]
	}
	at := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		j = max(1, min(j, n-1))
		delta := i*m - j*4
		return (d[j-1]*float64(4-delta) + d[j]*float64(delta)) / 4
	}
	return at(1), at(3)
}

// median returns the median of xs.
func median(xs []float64) float64 {
	d := append([]float64(nil), xs...)
	sort.Float64s(d)
	n := len(d)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return d[n/2]
	}
	return (d[n/2-1] + d[n/2]) / 2
}

// spread is the interquartile distance of xs as a share of its median.
func spread(xs []float64) float64 {
	q1, q3 := quartiles(xs)
	m := median(xs)
	if m == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(m)
}

// selfTimes turns the per-op times of a ladder of rungs, each wrapping the
// one below it, into each rung's own share: rung i minus rung i-1.
func selfTimes(rungs []float64) []float64 {
	out := make([]float64, len(rungs))
	for i, r := range rungs {
		out[i] = r
		if i > 0 {
			out[i] = r - rungs[i-1]
		}
	}
	return out
}
