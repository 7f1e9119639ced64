package core

import "rewire/internal/trace"

// hists caches the tracer's histogram handles so the amendment loops pay
// one nil check instead of a name lookup. Both are nil when tracing is
// disabled, and Observe is a no-op on nil, so call sites never branch.
// The work counters are not here: they are filled from the attempt's
// stats.Effort tally when the attempt ends (docs/OBSERVABILITY.md).
type hists struct {
	clusterSize   *trace.Histogram
	pcandsPerNode *trace.Histogram
}

func newHists(tr *trace.Tracer) hists {
	if !tr.Enabled() {
		return hists{}
	}
	return hists{
		clusterSize:   tr.Histogram("cluster.size"),
		pcandsPerNode: tr.Histogram("intersect.pcandidates_per_node"),
	}
}
