package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// median of xs; the mean of the middle two for an even count, 0 for none.
func median(xs []float64) float64 {
	s := sorted(xs)
	n := len(s)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// quartiles returns Q1, the median and Q3 as Python's
// statistics.quantiles(xs, n=4) computes them (exclusive method), which is
// what the acceptance check of the benchmark contract uses.
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sorted(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	at := func(k int) float64 {
		j := k * (n + 1) / 4
		j = min(max(j, 1), n-1)
		delta := k*(n+1) - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return at(1), at(2), at(3)
}

// spreadShare is the interquartile range as a share of the median.
func spreadShare(xs []float64) float64 {
	q1, q2, q3 := quartiles(xs)
	if q2 == 0 {
		return 0
	}
	return (q3 - q1) / math.Abs(q2)
}

// nearestRank returns the q-quantile of an ascending sample by the
// nearest-rank rule: the smallest observed value with at least q·n samples
// at or below it. No interpolation, so the result is a latency that
// happened.
func nearestRank(s []float64, q float64) float64 {
	if len(s) == 0 {
		return 0
	}
	return s[rankOf(len(s), q)-1]
}

func rankOf(n int, q float64) int {
	// The epsilon keeps 0.95·200 = 190.00000000000003 from rounding up.
	return min(max(int(math.Ceil(q*float64(n)-1e-9)), 1), n)
}

// tailLadder is the percentiles a tail may be reported at, highest first.
var tailLadder = []float64{0.999, 0.99, 0.95, 0.90, 0.75, 0.50}

// minBeyond is how many samples must lie beyond a percentile for it to be
// reported (choosing-metrics guide, section 1).
const minBeyond = 10

// supportedTail returns the highest percentile of the ladder that a sample
// of n has at least minBeyond observations beyond; 0.50 at worst.
func supportedTail(n int) float64 {
	for _, q := range tailLadder {
		if n-rankOf(n, q) >= minBeyond {
			return q
		}
	}
	return 0.50
}
