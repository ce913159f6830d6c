//go:build race

package pipeline

// raceEnabled reports a -race build. The race detector makes sync.Pool
// drop a random share of what is put back, so a run cannot count on
// drawing a pooled machine.
const raceEnabled = true
