package main

import (
	"sync"
	"time"
)

// The host's speed drifts. On a shared machine, other tenants' load slows
// every core for minutes at a time, CPU time included, and the best of a
// run's rounds cannot escape a slowdown that lasts the whole run. To tell
// a change of the simulator from a change of the host, a run times a fixed
// reference kernel before every program it measures, and scales its host
// times to the speed the kernel shows on the reference host. The kernel
// calls no simulator code, so no change to the simulator moves it.
//
// Of the kernels tried on the reference host (a walk over a 1 MiB table,
// one over 64 MiB, streaming writes over 8 and 64 MiB, page faults on fresh
// mappings), the 1 MiB walk tracked the workloads' slowdowns best, timed
// alongside short units of every workload for ten minutes.

const (
	calWords = 1 << 18 // the kernel's table: 1 MiB, within a core's L2
	calSteps = 200_000

	// calRef is the kernel's best time on the reference host under light
	// load, rounded, in seconds. It only sets the scale: reported host
	// times are those of a host on which the kernel takes calRef.
	calRef = 3.0e-3
)

var (
	calOnce   sync.Once
	calTables [workers][]uint32
	calSinks  [workers]uint32
)

// kernel walks table with data-dependent loads, stores and branches, the
// kind of work a cycle-level simulator does.
func kernel(table []uint32) uint32 {
	x := uint32(2463534242)
	mask := uint32(len(table) - 1)
	i := uint32(0)
	for n := 0; n < calSteps; n++ {
		x ^= x << 13
		x ^= x >> 17
		x ^= x << 5
		v := table[i]
		if v&1 == 0 {
			i = (v + x) & mask
		} else {
			i = (i*5 + 1) & mask
		}
		table[i] += x
	}
	return x
}

// calibrate runs the kernel once on every worker at the same time and
// returns the wall time, in seconds, until all have finished.
func calibrate() float64 {
	calOnce.Do(func() {
		for w := range calTables {
			calTables[w] = make([]uint32, calWords)
			for i := range calTables[w] {
				calTables[w][i] = uint32(i) * 2654435761
			}
		}
	})
	t0 := time.Now()
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			calSinks[w] = kernel(calTables[w])
		}()
	}
	wg.Wait()
	return time.Since(t0).Seconds()
}
