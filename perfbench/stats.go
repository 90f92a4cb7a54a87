package main

import (
	"math"
	"sort"
	"time"
)

// minBeyondP99 is how many samples must lie beyond a reported p99.
const minBeyondP99 = 10

// quantile returns the nearest-rank q-quantile of ds (sorted in place).
func quantile(ds []time.Duration, q float64) time.Duration {
	if len(ds) == 0 {
		return 0
	}
	sort.Slice(ds, func(i, j int) bool { return ds[i] < ds[j] })
	rank := max(int(math.Ceil(q*float64(len(ds)))), 1)
	return ds[rank-1]
}

// median returns the median of xs (sorted in place).
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sort.Float64s(xs)
	n := len(xs)
	if n%2 == 1 {
		return xs[n/2]
	}
	return (xs[n/2-1] + xs[n/2]) / 2
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }
func us(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// perOp divides a total duration by a count, in microseconds; 0 when the
// count is 0.
func perOp(d time.Duration, n uint64) float64 {
	if n == 0 {
		return 0
	}
	return us(d) / float64(n)
}

// ratio is a/(a+b), 0 when both are 0.
func ratio(a, b uint64) float64 {
	if a+b == 0 {
		return 0
	}
	return float64(a) / float64(a+b)
}
