//go:build !linux

package main

import "repro/internal/metrics"

// threadCPU is the calling OS thread's CPU time, in nanoseconds.
func threadCPU() int64 { return metrics.ThreadCPUNanos() }

// processCPU is the whole process's CPU time, in nanoseconds.
func processCPU() int64 { return metrics.ProcessCPUNanos() }
