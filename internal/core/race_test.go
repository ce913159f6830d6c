//go:build race

package core

// raceEnabled reports a -race build (see norace_test.go).
const raceEnabled = true
