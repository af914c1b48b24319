package main

import (
	"math"
	"testing"
	"time"
)

func TestScaleOver(t *testing.T) {
	var empty calibrator
	now := time.Now()
	if got := empty.scaleOver(now, now); got != 1 {
		t.Errorf("no samples: scale %v, want 1", got)
	}
	at := func(s float64) time.Time { return now.Add(time.Duration(s * float64(time.Second))) }
	c := calibrator{samples: []calibSample{
		{at(0), 4.4}, {at(1), 8.8}, {at(1.1), 2.2}, {at(1.2), 4.4}, {at(5), 11},
	}}
	for _, tc := range []struct {
		name   string
		t0, t1 time.Time
		want   float64
	}{
		// Samples from one period before the start to the end: 8.8, 2.2,
		// 4.4, median 4.4.
		{"median of the samples around the op", at(1.05), at(1.3), 1},
		// Nothing from 3.75 s to 4 s: the last sample before the end.
		{"last sample before it", at(4), at(4), 4.4 / 4.4},
		{"a later sample", at(5), at(6), 4.4 / 11},
	} {
		if got := c.scaleOver(tc.t0, tc.t1); math.Abs(got-tc.want) > 1e-12 {
			t.Errorf("%s: scale %v, want %v", tc.name, got, tc.want)
		}
	}
}

func TestSampleScalesToReference(t *testing.T) {
	var c calibrator
	f := c.scaleNow(1)
	s := c.samples[0]
	if s.ms <= 0 || math.Abs(f-kernelRefMs/s.ms) > 1e-12 {
		t.Errorf("scaleNow: factor %v for a %v ms kernel run", f, s.ms)
	}
	// The sampler samples once before it first waits, so even an
	// immediate stop leaves a second sample.
	c.sampleEvery(time.Hour)()
	if len(c.samples) < 2 {
		t.Errorf("the background sampler recorded %d samples", len(c.samples)-1)
	}
}
