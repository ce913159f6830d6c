//go:build linux

package metrics

import (
	"syscall"
	"unsafe"
)

// Linux CPU-time clock ids (uapi linux/time.h); the syscall package does
// not export them.
const (
	clockProcessCPUTime = 2
	clockThreadCPUTime  = 3
)

// cpuClock reads a CPU-time clock in nanoseconds. clock_gettime is exact
// to the nanosecond, where getrusage(RUSAGE_THREAD) only advances at
// scheduler ticks: too coarse for tasks of a few milliseconds.
func cpuClock(id uintptr) (int64, bool) {
	var ts syscall.Timespec
	if _, _, errno := syscall.Syscall(syscall.SYS_CLOCK_GETTIME, id, uintptr(unsafe.Pointer(&ts)), 0); errno != 0 {
		return 0, false
	}
	return ts.Nano(), true
}

// threadCPUNanos reads the calling OS thread's consumed CPU time
// (user+system) from CLOCK_THREAD_CPUTIME_ID.
func threadCPUNanos() int64 {
	if ns, ok := cpuClock(clockThreadCPUTime); ok {
		return ns
	}
	return processCPUNanos()
}

// processCPUNanos reads the whole process's consumed CPU time from
// CLOCK_PROCESS_CPUTIME_ID; 0 if the clock is unavailable.
func processCPUNanos() int64 {
	ns, _ := cpuClock(clockProcessCPUTime)
	return ns
}

// maxRSSKB reads the process RSS high-water mark; linux getrusage reports
// it in kilobytes already.
func maxRSSKB() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Maxrss
}
