package core

import (
	"math/rand"
	"sort"
	"sync"

	"rewire/internal/mrrg"
)

// amendScratch is the pooled per-amendment working memory: every buffer
// the cluster loop (propagate → intersect → generate → grow) needs,
// recycled across rounds, attempts, and runs via a sync.Pool. One
// scratch belongs to exactly one amender at a time and is only touched
// from the amender's own goroutine, probe floods included, so nothing
// here is synchronised.
//
// Everything in the scratch is pure workspace: recycling a dirty scratch
// from a failed or cancelled attempt must never change a mapping result.
// The dirty-pool determinism tests in scratch_test.go enforce that, and
// docs/PERFORMANCE.md ("Memory architecture") documents the contract.
type amendScratch struct {
	// mark is DFG-node-indexed epoch-stamped membership scratch shared by
	// anchor collection, representative-anchor DFS, and cluster seeding;
	// each user starts a fresh set with beginMark (O(1)).
	mark  []int64
	epoch int64

	// u is the single live cluster of the amendment (amenders repair one
	// cluster at a time).
	u cluster

	// anchor collection and the probe floods (propagateAll): the live
	// propagations by anchor key, released ones kept with their layer,
	// tuple and tree buffers for the next flood, the occupancy snapshot
	// (one free-slot bitset per modulo time step) and a forward layer's
	// usable mask with the anchor's own-net slots added.
	parentsBuf  []int
	childrenBuf []int
	props       map[int]*propagation
	spareProps  []*propagation
	free        []uint64
	own         []uint64

	// representative-anchor DFS (repAnchors).
	repOut   []int
	repStack []int

	// intersect: per-node candidate lists (candBufs[i] backs the i-th
	// cluster node's pcands, all live simultaneously through generate),
	// source-constraint buffers, sorted-time intersection buffers, the
	// candidate-spreading permutation, and the counting sort's staging
	// list and key counts.
	cands    map[int][]pcand
	candBufs [][]pcand
	fwdBuf   []srcConstraint
	bwdBuf   []srcConstraint
	timesA   []int
	timesB   []int
	permBuf  []int
	sortBuf  []pcand
	countBuf []int

	// cluster growth.
	queueBuf []int
	tiedBuf  []int

	// placement enumeration: the generator itself, the chosen-candidate
	// vector, one routed-edge buffer per recursion depth (a depth's list
	// stays live while deeper levels enumerate, so one shared buffer
	// would corrupt the backtracking unwind), one cycle-constraint list
	// per cluster node (all built up front, as the forward check at
	// depth i reads depth i+1's), and the probe path under test
	// (routeProbe).
	gen        generator
	chosenBuf  []pcand
	routedBufs [][]int
	consBufs   [][]cycleCons
	probePath  []mrrg.Node
}

var amendScratchPool = sync.Pool{New: func() any {
	return &amendScratch{
		props: map[int]*propagation{},
		cands: map[int][]pcand{},
	}
}}

// getAmendScratch draws a scratch sized for a DFG with numNodes nodes.
func getAmendScratch(numNodes int) *amendScratch {
	s := amendScratchPool.Get().(*amendScratch)
	if len(s.mark) < numNodes {
		s.mark = make([]int64, numNodes)
		s.epoch = 0
	}
	return s
}

// putAmendScratch recycles a scratch, dropping references that would pin
// per-run objects (graphs, candidate data) past the run.
func putAmendScratch(s *amendScratch) {
	s.releaseProps()
	clear(s.cands)
	s.gen = generator{}
	amendScratchPool.Put(s)
}

// newProp draws a propagation, a released one when there is one, reset
// for a flood with numPEs PEs.
func (s *amendScratch) newProp(numPEs int) *propagation {
	var p *propagation
	if n := len(s.spareProps); n > 0 {
		p = s.spareProps[n-1]
		s.spareProps = s.spareProps[:n-1]
	} else {
		p = new(propagation)
	}
	p.reset(numPEs)
	return p
}

// releaseProps empties the props map, keeping its propagations for
// later floods. They must not be used afterwards (extractPath would
// read recycled layers); because the entries are deleted here,
// releasing twice is a no-op.
func (s *amendScratch) releaseProps() {
	for k, p := range s.props {
		delete(s.props, k)
		p.g, p.slotPE = nil, nil
		s.spareProps = append(s.spareProps, p)
	}
}

// beginMark starts a fresh empty mark set in O(1) and returns its epoch:
// node v is a member iff mark[v] == epoch.
func (s *amendScratch) beginMark() int64 {
	s.epoch++
	return s.epoch
}

// perm fills the scratch permutation buffer exactly as rand.Perm(n)
// would — the same Fisher-Yates loop consuming the same n Intn draws —
// so replacing rng.Perm with this buffer reuse cannot shift any
// downstream random draw or change the permutation.
func (s *amendScratch) perm(rng *rand.Rand, n int) []int {
	m := s.permBuf
	if cap(m) < n {
		m = make([]int, n)
	}
	m = m[:n]
	for i := 0; i < n; i++ {
		j := rng.Intn(i + 1)
		m[i] = m[j]
		m[j] = i
	}
	s.permBuf = m
	return m
}

// sortedContains reports whether x occurs in ascending-sorted s.
func sortedContains(s []int, x int) bool {
	i := sort.SearchInts(s, x)
	return i < len(s) && s[i] == x
}
