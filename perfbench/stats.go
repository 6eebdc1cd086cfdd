package main

import (
	"math"
	"sort"
)

// sorted returns an ascending copy of xs.
func sorted(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// median is the middle value of xs (the mean of the two middle values for
// an even count); NaN for no samples.
func median(xs []float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// percentile is the p-th percentile (0..100) of xs by linear interpolation
// between closest ranks; NaN for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return math.NaN()
	}
	s := sorted(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

// quartiles reports the first, second and third quartile of xs by the
// method of Python's statistics.quantiles(xs, n=4) (the default
// "exclusive" method), so spreads printed here match the ones computed
// over repeated runs. It needs at least two samples.
func quartiles(xs []float64) (q1, q2, q3 float64, ok bool) {
	if len(xs) < 2 {
		return 0, 0, 0, false
	}
	s := sorted(xs)
	n := len(s)
	m := n + 1
	var q [3]float64
	for i := 1; i <= 3; i++ {
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2], true
}

// tailPermille is the ladder of percentiles tailPercentile picks from, in
// tenths of a percent so the sample arithmetic stays exact.
var tailPermille = []int{999, 990, 950, 900, 750, 500}

// tailPercentile is the highest conventional percentile that n samples
// support with at least ten samples beyond it; false when n < 20.
func tailPercentile(n int) (float64, bool) {
	for _, p := range tailPermille {
		if n*(1000-p) >= 10*1000 {
			return float64(p) / 10, true
		}
	}
	return 0, false
}
