package main

import (
	"runtime"
	"sort"
	"sync"
	"time"
)

// The reference machine is a shared virtual machine, and two things move
// its timings that no change to the repository causes.
//
// First, its speed switches between a fast and a slow mode, about 1.4x
// apart, as the neighbours come and go, from minute to minute and over
// hours. So every run also times a calibration kernel next to its
// operations (at the start of every round of frames, before every set-up
// repetition, and every calibPeriod while the multi-threaded reports and
// the cluster run), and reports each end-to-end host time at the
// reference speed: multiplied by kernelRefMs over the kernel's time
// measured alongside it. The kernel is the benchmark's own fixed code, so
// no change to the repository moves it; a simulator made 20% faster reads
// 20% faster. Raw times stay in the result file.
//
// Second, while one vCPU is busy and the other idles, the hypervisor
// takes 3-30% of the busy one's time (steal in /proc/stat), changing from
// minute to minute; with both busy it takes about 1%. So an operation that
// one goroutine runs from start to end (a frame, a set-up that generates
// scenes) is timed by the CPU time the process spent on it, which leaves
// stolen time out, while an operation spread over goroutines (a report, a
// request, starting and warming the cluster) is timed by its wall time,
// which also counts any time lost to waiting between its parts.
//
// The kernel mixes hash-map probes and float32 arithmetic, the two kinds
// of inner loop whose speed tracked the simulator's closest (a map-only
// kernel followed its mode changes with a slope of 0.91 on the log scale;
// array scans, allocation churn and large random walks tracked worse). It
// is timed in thread CPU time, so waiting for a CPU does not count.

// kernelRefMs is the kernel's time on the reference machine in its fast
// mode (a 2-vCPU Intel Xeon, see bench/README.md).
const kernelRefMs = 4.4

// calibPeriod is how often a background sampler times the kernel while
// multi-threaded operations run.
const calibPeriod = 250 * time.Millisecond

// calibSink keeps the kernel's result live.
var calibSink int

// calibKernel is the calibration workload: 50k probes and inserts into a
// map over a 128K-key space, and 500k steps of a float32
// point-in-triangle test.
func calibKernel() int {
	m := make(map[uint64]uint32)
	x := uint64(88172645463325252)
	n := 0
	for i := 0; i < 50_000; i++ {
		x ^= x << 13
		x ^= x >> 7
		x ^= x << 17
		k := x % (1 << 17)
		if _, ok := m[k]; ok {
			n++
		} else {
			m[k] = uint32(i)
		}
	}
	fx, fy := float32(0.5), float32(0.25)
	for i := 0; i < 500_000; i++ {
		fx = fx*1.0001 + 0.37
		if fx > 100 {
			fx -= 100
		}
		fy = fy*0.9999 + 0.11
		if fy > 100 {
			fy -= 100
		}
		d1 := -100 * fy
		d2 := (fx-100)*100 + 100*fy
		d3 := -100 * fx
		if (d1 >= 0) == (d2 >= 0) && (d2 >= 0) == (d3 >= 0) {
			n++
		}
	}
	return n
}

type calibSample struct {
	at time.Time
	ms float64
}

// calibrator records kernel timings over a run. It is safe for concurrent
// use.
type calibrator struct {
	mu      sync.Mutex
	samples []calibSample // in time order
}

// sample times one kernel run on the calling goroutine's OS thread,
// records it and returns it in ms.
func (c *calibrator) sample() float64 {
	runtime.LockOSThread()
	t0 := threadCPU()
	n := calibKernel()
	d := ms(threadCPU() - t0)
	runtime.UnlockOSThread()
	c.mu.Lock()
	defer c.mu.Unlock()
	calibSink += n
	c.samples = append(c.samples, calibSample{at: time.Now(), ms: d})
	return d
}

// scaleNow samples the kernel n times and returns the factor that brings
// a time measured now to the reference speed.
func (c *calibrator) scaleNow(n int) float64 {
	ks := make([]float64, n)
	for i := range ks {
		ks[i] = c.sample()
	}
	return kernelRefMs / median(ks)
}

// sampleEvery samples the kernel every period in the background. The
// returned stop function returns once the sampler has exited.
func (c *calibrator) sampleEvery(period time.Duration) (stop func()) {
	done := make(chan struct{})
	exited := make(chan struct{})
	go func() {
		defer close(exited)
		t := time.NewTicker(period)
		defer t.Stop()
		for {
			c.sample()
			select {
			case <-done:
				return
			case <-t.C:
			}
		}
	}()
	return func() {
		close(done)
		<-exited
	}
}

// scaleOver returns the factor for an operation that ran from t0 to t1:
// kernelRefMs over the median kernel time sampled from one period before
// t0 to t1, or over the last sample before t1 when none falls in that
// span (1 without samples).
func (c *calibrator) scaleOver(t0, t1 time.Time) float64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	from := sort.Search(len(c.samples), func(i int) bool { return !c.samples[i].at.Before(t0.Add(-calibPeriod)) })
	to := sort.Search(len(c.samples), func(i int) bool { return c.samples[i].at.After(t1) })
	var in []float64
	for _, s := range c.samples[from:max(from, to)] {
		in = append(in, s.ms)
	}
	switch {
	case len(in) > 0:
		return kernelRefMs / median(in)
	case to > 0:
		return kernelRefMs / c.samples[to-1].ms
	default:
		return 1
	}
}

func (c *calibrator) summary() map[string]any {
	c.mu.Lock()
	defer c.mu.Unlock()
	all := make([]float64, len(c.samples))
	for i, s := range c.samples {
		all[i] = s.ms
	}
	return map[string]any{"samples": len(all), "kernel_ms_p50": median(all), "kernel_ref_ms": kernelRefMs}
}
