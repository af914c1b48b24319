package main

import (
	"math"
	"sort"
	"time"
)

// sortedCopy returns xs sorted ascending, leaving xs untouched.
func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}

// percentile returns the p-th percentile (0 <= p <= 100) of xs by linear
// interpolation between the closest ranks. It returns 0 for no samples.
func percentile(xs []float64, p float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := sortedCopy(xs)
	pos := p / 100 * float64(len(s)-1)
	lo := int(math.Floor(pos))
	if lo >= len(s)-1 {
		return s[len(s)-1]
	}
	frac := pos - float64(lo)
	return s[lo] + (s[lo+1]-s[lo])*frac
}

func median(xs []float64) float64 { return percentile(xs, 50) }

// tailPercentile applies the reporting rule for latency tails: the highest
// of p99.9, p99 and p90 that leaves at least ten of n samples beyond it. ok
// is false below 100 samples, where no such percentile exists.
func tailPercentile(n int) (p float64, ok bool) {
	for _, tenths := range []int{999, 990, 900} {
		atOrBelow := (n*tenths + 999) / 1000 // ceil(n * p / 100)
		if n-atOrBelow >= 10 {
			return float64(tenths) / 10, true
		}
	}
	return 0, false
}

// quartiles returns the three cut points Python's
// statistics.quantiles(xs, n=4) gives (its default "exclusive" method), so
// spreads computed here match the ones a reader computes from the result
// files. It needs at least two samples; with fewer, all three are the one
// value (or 0).
func quartiles(xs []float64) (q1, q2, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	var q [3]float64
	m := n + 1
	for i := 1; i <= 3; i++ {
		j := min(max(i*m/4, 1), n-1)
		delta := i*m - j*4 // outside [0, 4] after clamping: extrapolates, as Python does
		q[i-1] = (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q[0], q[1], q[2]
}

// geomean returns the geometric mean of the positive values of xs (0 if
// none). Frame workloads mix scenes whose frames differ several-fold in
// cost, so they summarise per-scene medians with it: a change that speeds
// every scene up by x% moves the geometric mean by exactly x%, whatever
// the mix.
func geomean(xs []float64) float64 {
	var sum float64
	n := 0
	for _, x := range xs {
		if x > 0 {
			sum += math.Log(x)
			n++
		}
	}
	if n == 0 {
		return 0
	}
	return math.Exp(sum / float64(n))
}

func ms(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// ratio returns num/den, or 0 when den is 0.
func ratio(num, den int64) float64 {
	if den == 0 {
		return 0
	}
	return float64(num) / float64(den)
}
