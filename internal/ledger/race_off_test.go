//go:build !race

package ledger

// raceEnabled reports whether the race detector instruments this build;
// allocation-count assertions are skipped under instrumentation.
const raceEnabled = false
