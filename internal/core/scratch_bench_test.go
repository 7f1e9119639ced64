package core

import (
	"math/rand"
	"testing"
)

// BenchmarkSubAmendScratch measures the pooled amendment-scratch cycle:
// acquiring a scratch, starting a mark epoch, drawing the candidate
// permutation, taking and releasing a propagation, and recycling the
// scratch. This is the per-amendment fixed cost the sync.Pool rework
// drove to zero steady-state allocations; the benchmark is pinned at
// 0 allocs/op (benchdiff fails any increase from a zero baseline).
func BenchmarkSubAmendScratch(b *testing.B) {
	b.ReportAllocs()
	const numNodes, numPEs = 256, 16
	rng := rand.New(rand.NewSource(1))
	// Warm the pools so the measured loop is the steady state.
	warm := getAmendScratch(numNodes)
	warm.perm(rng, numPEs)
	warm.props[0] = warm.newProp(numPEs)
	putAmendScratch(warm)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := getAmendScratch(numNodes)
		e := s.beginMark()
		s.mark[0], s.mark[numNodes-1] = e, e
		s.perm(rng, numPEs)
		s.props[0] = s.newProp(numPEs)
		s.releaseProps()
		putAmendScratch(s)
	}
}
