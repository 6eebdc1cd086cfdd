package main

import (
	"math"
	"testing"
	"time"
)

func near(a, b float64) bool { return math.Abs(a-b) < 1e-9 }

func TestMedian(t *testing.T) {
	for _, c := range []struct {
		xs   []float64
		want float64
	}{
		{[]float64{3}, 3},
		{[]float64{5, 1, 4, 2, 3}, 3},
		{[]float64{4, 1, 3, 2}, 2.5},
	} {
		if got := median(c.xs); !near(got, c.want) {
			t.Errorf("median(%v) = %v, want %v", c.xs, got, c.want)
		}
	}
	if !math.IsNaN(median(nil)) {
		t.Error("median of no samples is not NaN")
	}
	xs := []float64{3, 1, 2}
	median(xs)
	if xs[0] != 3 || xs[1] != 1 {
		t.Error("median reordered its input")
	}
}

// TestQuartilesMatchPython pins quartiles to the values Python's
// statistics.quantiles(xs, n=4) gives, the spreads' reference method.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs         []float64
		q1, q2, q3 float64
	}{
		{[]float64{1, 2, 3, 4}, 1.25, 2.5, 3.75},
		{[]float64{5, 1, 4, 2, 3}, 1.5, 3, 4.5},
		{[]float64{0.3, 0.1}, 0.05, 0.2, 0.35},
		{[]float64{10, 20, 30, 40, 50, 60, 70, 80, 90, 100, 110}, 30, 60, 90},
	} {
		q1, q2, q3, ok := quartiles(c.xs)
		if !ok || !near(q1, c.q1) || !near(q2, c.q2) || !near(q3, c.q3) {
			t.Errorf("quartiles(%v) = %v %v %v %v, want %v %v %v", c.xs, q1, q2, q3, ok, c.q1, c.q2, c.q3)
		}
	}
	if _, _, _, ok := quartiles([]float64{1}); ok {
		t.Error("quartiles of one sample reported ok")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{40, 10, 30, 20, 50}
	for _, c := range []struct{ p, want float64 }{
		{0, 10}, {50, 30}, {100, 50}, {90, 46}, {25, 20},
	} {
		if got := percentile(xs, c.p); !near(got, c.want) {
			t.Errorf("percentile(%v) = %v, want %v", c.p, got, c.want)
		}
	}
}

func TestTailPercentile(t *testing.T) {
	for _, c := range []struct {
		n    int
		want float64
		ok   bool
	}{
		{19, 0, false},
		{20, 50, true},
		{39, 50, true},
		{40, 75, true},
		{100, 90, true},
		{199, 90, true},
		{200, 95, true},
		{1000, 99, true},
		{10000, 99.9, true},
	} {
		got, ok := tailPercentile(c.n)
		if got != c.want || ok != c.ok {
			t.Errorf("tailPercentile(%d) = %v %v, want %v %v", c.n, got, ok, c.want, c.ok)
		}
	}
}

func TestLessSteal(t *testing.T) {
	a := cpuStat{busy: 1000, steal: 50}
	for _, c := range []struct {
		b    cpuStat
		want time.Duration
	}{
		{cpuStat{busy: 1090, steal: 60}, 900 * time.Millisecond}, // 10% stolen
		{cpuStat{busy: 1180, steal: 70}, 900 * time.Millisecond}, // both vCPUs busy: same share
		{cpuStat{busy: 1100, steal: 50}, time.Second},            // no steal
		{cpuStat{busy: 1000, steal: 50}, time.Second},            // nothing counted
		{cpuStat{}, time.Second},                                 // /proc/stat unreadable
	} {
		if got := lessSteal(time.Second, a, c.b); got != c.want {
			t.Errorf("lessSteal(1s, %+v, %+v) = %v, want %v", a, c.b, got, c.want)
		}
	}
}
