package rewire

import (
	"runtime/debug"
	"testing"
)

// TestAllocBounds bounds the allocations of the paths that allocate by
// design, over the bodies of the Sub* benchmarks of the same names and
// BenchmarkResultCacheHit, sharing their set-up. Each bound is the count
// measured when it was set (Go 1.24.0, linux/amd64, in the comments)
// plus under 10%, so a 20% rise fails. GC is off while counting, so a
// collection that empties a pool (lowering's, the graph's state pool)
// cannot add a count. A bound that a change lowers may be tightened;
// one that a change raises is a regression to explain, not a number to
// refresh.
func TestAllocBounds(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range []struct {
		name string
		max  float64
		// setup does the unmeasured work and returns the measured body.
		setup func(testing.TB) func()
	}{
		{"SubKernelLowering", 4550, kernelLowering}, // 4,184 measured
		{"SubMRRGBuild", 7, mrrgBuild},              // 7
		{"SubPFInitial", 213, func(tb testing.TB) func() { // 196, seed 1
			build := pfInitial(tb)
			return func() { build(1) }
		}},
		{"SubValidate", 5, validateMvt},        // 5
		{"SubRecMII", 15, recMIICrc},           // 14
		{"ResultCacheHit", 57, resultCacheHit}, // 53
	} {
		body := tc.setup(t)
		body() // warm the caches and pools
		old := debug.SetGCPercent(-1)
		got := testing.AllocsPerRun(20, body)
		debug.SetGCPercent(old)
		t.Logf("%s: %v allocs/op (bound %v)", tc.name, got, tc.max)
		if got > tc.max {
			t.Errorf("%s allocates %v times per op, bound %v", tc.name, got, tc.max)
		}
	}
}
