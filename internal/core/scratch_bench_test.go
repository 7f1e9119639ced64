package core

import (
	"math/rand"
	"runtime/debug"
	"testing"
)

const scratchNodes, scratchPEs = 256, 16

// amendScratchCycle is the per-amendment fixed cost of the pooled
// amendment scratch: acquiring a scratch, starting a mark epoch, drawing
// the candidate permutation, taking and releasing a propagation, and
// recycling the scratch.
func amendScratchCycle(rng *rand.Rand) {
	s := getAmendScratch(scratchNodes)
	e := s.beginMark()
	s.mark[0], s.mark[scratchNodes-1] = e, e
	s.perm(rng, scratchPEs)
	s.props[0] = s.newProp(scratchPEs)
	s.releaseProps()
	putAmendScratch(s)
}

// warmAmendScratch fills the pools so a cycle is the steady state.
func warmAmendScratch(rng *rand.Rand) {
	warm := getAmendScratch(scratchNodes)
	warm.perm(rng, scratchPEs)
	warm.props[0] = warm.newProp(scratchPEs)
	putAmendScratch(warm)
}

// BenchmarkSubAmendScratch measures the pooled amendment-scratch cycle.
// TestAmendScratchAllocs pins it at zero allocations.
func BenchmarkSubAmendScratch(b *testing.B) {
	b.ReportAllocs()
	rng := rand.New(rand.NewSource(1))
	warmAmendScratch(rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		amendScratchCycle(rng)
	}
}

// TestAmendScratchAllocs pins the steady-state amendment-scratch cycle
// at zero allocations, the cost the sync.Pool rework drove to zero. GC
// is off while counting, so a collection that empties the pool cannot
// add a count.
func TestAmendScratchAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	rng := rand.New(rand.NewSource(1))
	warmAmendScratch(rng)
	if allocs := testing.AllocsPerRun(1000, func() { amendScratchCycle(rng) }); allocs != 0 {
		t.Fatalf("amendment-scratch cycle allocates %v times, want 0", allocs)
	}
}
