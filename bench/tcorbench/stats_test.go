package main

import (
	"math"
	"testing"
)

func TestTailPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		p    float64
		isOK bool
	}{
		{0, 0, false},
		{99, 0, false},
		{100, 90, true},
		{999, 90, true},
		{1000, 99, true},
		{9999, 99, true},
		{10000, 99.9, true},
	} {
		p, ok := tailPercentile(tc.n)
		if p != tc.p || ok != tc.isOK {
			t.Errorf("tailPercentile(%d) = %v, %v; want %v, %v", tc.n, p, ok, tc.p, tc.isOK)
		}
		if ok {
			// The rule itself: at least ten samples lie beyond the percentile.
			if beyond := tc.n - int(math.Ceil(float64(tc.n)*p/100)); beyond < 10 {
				t.Errorf("n=%d p%v leaves %d samples beyond it", tc.n, p, beyond)
			}
		}
	}
}

// TestQuartilesMatchPython pins quartiles to Python's
// statistics.quantiles(xs, n=4), extrapolation at small n included.
func TestQuartilesMatchPython(t *testing.T) {
	for _, tc := range []struct {
		xs   []float64
		want [3]float64
	}{
		{[]float64{1, 2}, [3]float64{0.75, 1.5, 2.25}},
		{[]float64{5, 1, 3}, [3]float64{1, 3, 5}},
		{[]float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}, [3]float64{2.75, 5.5, 8.25}},
	} {
		q1, q2, q3 := quartiles(tc.xs)
		if got := [3]float64{q1, q2, q3}; got != tc.want {
			t.Errorf("quartiles(%v) = %v, want %v", tc.xs, got, tc.want)
		}
	}
}

func TestPercentileAndGeomean(t *testing.T) {
	xs := []float64{4, 1, 3, 2, 5}
	if got := median(xs); got != 3 {
		t.Errorf("median = %v, want 3", got)
	}
	if got := percentile(xs, 90); math.Abs(got-4.6) > 1e-12 {
		t.Errorf("p90 = %v, want 4.6", got)
	}
	if xs[0] != 4 {
		t.Errorf("percentile reordered its input")
	}
	if got := geomean([]float64{2, 8, 0}); math.Abs(got-4) > 1e-12 {
		t.Errorf("geomean = %v, want 4 (zeros skipped)", got)
	}
}
