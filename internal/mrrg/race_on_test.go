//go:build race

package mrrg

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under instrumentation.
const raceEnabled = true
