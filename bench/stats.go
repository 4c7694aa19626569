package main

import (
	"math"
	"sort"
)

// tailBeyond is the number of samples that must lie beyond a percentile
// for it to be reported: p95 needs 400 samples, p99 needs 2,000.
const tailBeyond = 20

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	out := append([]float64(nil), xs...)
	sort.Float64s(out)
	return out
}

// percentile is the nearest-rank percentile of an ascending slice: the
// smallest sample with at least p of the samples at or below it. It
// returns 0 for an empty slice.
func percentile(asc []float64, p float64) float64 {
	if len(asc) == 0 {
		return 0
	}
	rank := int(math.Ceil(p * float64(len(asc))))
	if rank < 1 {
		rank = 1
	}
	if rank > len(asc) {
		rank = len(asc)
	}
	return asc[rank-1]
}

// median is the middle sample (mean of the two middle ones for an even
// count); 0 for an empty slice.
func median(xs []float64) float64 {
	asc := sorted(xs)
	n := len(asc)
	switch {
	case n == 0:
		return 0
	case n%2 == 1:
		return asc[n/2]
	default:
		return (asc[n/2-1] + asc[n/2]) / 2
	}
}

// supportsTail reports whether n samples leave at least tailBeyond of
// them beyond percentile p — the rule under which a tail percentile is
// printed at all.
func supportsTail(n int, p float64) bool {
	return float64(n)*(1-p) >= tailBeyond
}

// quartileSpread is the distance between the first and third quartile as
// a share of the median, with the quartiles computed the way Python's
// statistics.quantiles(values, n=4) does (exclusive method). It needs at
// least two values; ok is false otherwise or when the median is 0.
func quartileSpread(xs []float64) (spread float64, ok bool) {
	asc := sorted(xs)
	n := len(asc)
	if n < 2 {
		return 0, false
	}
	quart := func(i int) float64 {
		j := i * (n + 1) / 4
		if j < 1 {
			j = 1
		}
		if j > n-1 {
			j = n - 1
		}
		delta := i*(n+1) - j*4
		return (asc[j-1]*float64(4-delta) + asc[j]*float64(delta)) / 4
	}
	med := median(asc)
	if med == 0 {
		return 0, false
	}
	return math.Abs(quart(3)-quart(1)) / math.Abs(med), true
}
