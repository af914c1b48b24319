//go:build !linux

package main

import "time"

var processStart = time.Now()

// threadCPU falls back to wall time where no per-thread CPU clock is
// wired up; calibration samples then include any time spent waiting for
// a CPU.
func threadCPU() time.Duration { return time.Since(processStart) }
