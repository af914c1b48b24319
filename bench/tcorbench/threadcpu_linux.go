package main

import (
	"syscall"
	"time"
	"unsafe"
)

// threadCPU returns the CPU time the calling OS thread has used, from
// CLOCK_THREAD_CPUTIME_ID (getrusage's per-thread figure is tick-sampled).
func threadCPU() time.Duration {
	const clockThreadCPUTimeID = 3
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, clockThreadCPUTimeID, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return time.Duration(ts.Nano())
}
