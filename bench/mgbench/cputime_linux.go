//go:build linux

package main

import (
	"syscall"
	"unsafe"
)

// Linux clock ids (uapi linux/time.h); the syscall package does not
// export them.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuClock reads a CPU-time clock in nanoseconds. clock_gettime is exact to
// the nanosecond, where getrusage on a thread only advances at scheduler
// ticks: too coarse for spans of a few hundred microseconds.
func cpuClock(id uintptr) int64 {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0
	}
	return ts.Nano()
}

// threadCPU is the calling OS thread's CPU time.
func threadCPU() int64 { return cpuClock(clockThreadCPUTime) }

// processCPU is the whole process's CPU time.
func processCPU() int64 { return cpuClock(clockProcessCPUTime) }
