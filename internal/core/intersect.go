package core

import (
	"rewire/internal/placer"
)

// pcand is one placement candidate for one cluster node: a PE plus the
// absolute execution cycle implied by the intersected tuples (the
// "available execution cycle" Algorithm 2 sorts by).
type pcand struct {
	pe int
	T  int
}

// srcConstraint is one edge between a cluster node and a propagation
// anchor, either direct (the anchor is the literal parent/child) or
// representative (the anchor stands in for an unmapped relative found by
// DFS, §IV-D).
type srcConstraint struct {
	prop *propagation
	// For direct constraints, the implied execution time for a tuple with
	// L cycles is srcTime + L - dist*II (forward) or srcTime - L + dist*II
	// (backward); dist is the edge's inter-iteration distance.
	dist   int
	direct bool
}

// intersect computes PCandidates(v) for every v in U by intersecting the
// execution times implied by the propagation tuples of all of v's
// sources (Eq. 1): a PE qualifies only if every direct source has a
// tuple arriving there at the same implied execution cycle, and every
// representative source can reach it no later (forward) / no earlier
// (backward).
//
// The returned map and the candidate slices in it live in the amender's
// scratch: they stay valid through placement generation of this cluster
// iteration and are recycled by the next intersect call.
func (a *amender) intersect(u *cluster, props map[int]*propagation) map[int][]pcand {
	scr := a.scratch()
	out := scr.cands
	clear(out)
	for len(scr.candBufs) < len(u.nodes) {
		scr.candBufs = append(scr.candBufs, nil)
	}
	for i, v := range u.nodes {
		scr.candBufs[i] = a.candidatesFor(v, u, props, scr.candBufs[i][:0])
		out[v] = scr.candBufs[i]
	}
	return out
}

func (a *amender) candidatesFor(v int, u *cluster, props map[int]*propagation, cands []pcand) []pcand {
	fwd, bwd := a.sourceConstraints(v, u, props)
	numPEs := a.sess.M.Arch.NumPEs()

	hasDirect := false
	for _, c := range fwd {
		if c.direct {
			hasDirect = true
			break
		}
	}
	if !hasDirect {
		for _, c := range bwd {
			if c.direct {
				hasDirect = true
				break
			}
		}
	}

	for pe := 0; pe < numPEs; pe++ {
		var times []int
		switch {
		case hasDirect:
			times = a.directTimes(pe, fwd, bwd)
		case len(fwd)+len(bwd) > 0:
			times = a.repOnlyTimes(pe, fwd, bwd)
		default:
			// Fully unanchored node: fall back to the free slots of a
			// schedule window (handled after the loop for all PEs).
			continue
		}
		for _, T := range times {
			if a.sess.CanPlace(v, pe, T) {
				cands = append(cands, pcand{pe: pe, T: T})
			}
		}
	}
	if len(fwd)+len(bwd) == 0 {
		cands = a.fallbackCandidates(v, cands[:0])
	}
	// Algorithm 2 line 3: sort candidates by available execution cycle.
	// PEs within one cycle are shuffled so concurrently-placed cluster
	// nodes spread over the fabric instead of all contending for the
	// lowest-numbered PE. The permutation is drawn here, for every call,
	// because later draws of the shared RNG depend on it.
	perm := a.scratch().perm(a.rng, numPEs)
	a.scratch().sortCands(cands, perm)
	if len(cands) > a.opt.MaxCandidatesPerNode {
		cands = cands[:a.opt.MaxCandidatesPerNode]
	}
	return cands
}

// sortCands orders cands by execution cycle T, then by the PE's rank in
// perm, with two stable counting passes: by rank into the staging list,
// then by T back into cands. Both keys are small integers: ranks are
// below len(perm) and T spans at most the propagation depth (or the
// fallback schedule window). The (T, pe) pairs are unique and perm is a
// permutation, so the order is total and the result is the one any
// comparison sort by (T, perm[pe]) gives, element for element.
func (s *amendScratch) sortCands(cands []pcand, perm []int) {
	if len(cands) < 2 {
		return
	}
	minT, maxT := cands[0].T, cands[0].T
	for _, c := range cands[1:] {
		minT, maxT = min(minT, c.T), max(maxT, c.T)
	}
	staged := resized(s.sortBuf, len(cands))
	count := resized(s.countBuf, max(len(perm), maxT-minT+1))
	// Pass 1, by rank: count, turn the counts into start offsets, place.
	rank := count[:len(perm)]
	clear(rank)
	for _, c := range cands {
		rank[perm[c.pe]]++
	}
	prefixOffsets(rank)
	for _, c := range cands {
		k := perm[c.pe]
		staged[rank[k]] = c
		rank[k]++
	}
	// Pass 2, by T, keeps the rank order within each cycle.
	at := count[:maxT-minT+1]
	clear(at)
	for _, c := range staged {
		at[c.T-minT]++
	}
	prefixOffsets(at)
	for _, c := range staged {
		k := c.T - minT
		cands[at[k]] = c
		at[k]++
	}
	s.sortBuf, s.countBuf = staged, count
}

// prefixOffsets turns per-key counts into each key's first output
// position (an exclusive prefix sum), in place.
func prefixOffsets(count []int) {
	sum := 0
	for k, n := range count {
		count[k] = sum
		sum += n
	}
}

// sourceConstraints gathers v's forward (parent-side) and backward
// (child-side) constraints. Direct edges to mapped anchors give exact
// constraints; edges to unmapped relatives are represented by the
// anchors a DFS reaches through unmapped nodes. The returned slices are
// scratch-backed and stay valid until the next call.
func (a *amender) sourceConstraints(v int, u *cluster, props map[int]*propagation) (fwd, bwd []srcConstraint) {
	scr := a.scratch()
	fwd, bwd = scr.fwdBuf[:0], scr.bwdBuf[:0]
	for _, eid := range a.g.InEdges(v) {
		e := a.g.Edges[eid]
		if e.From == v {
			continue // self recurrence: no placement constraint
		}
		if a.sess.M.Placed(e.From) {
			if p := propOf(props, e.From, true); p != nil {
				fwd = append(fwd, srcConstraint{prop: p, dist: e.Dist, direct: true})
			}
		} else {
			for _, s := range a.repAnchors(e.From, true) {
				if p := propOf(props, s, true); p != nil {
					fwd = append(fwd, srcConstraint{prop: p, direct: false})
				}
			}
		}
	}
	for _, eid := range a.g.OutEdges(v) {
		e := a.g.Edges[eid]
		if e.To == v {
			continue
		}
		if a.sess.M.Placed(e.To) {
			if p := propOf(props, e.To, false); p != nil {
				bwd = append(bwd, srcConstraint{prop: p, dist: e.Dist, direct: true})
			}
		} else {
			for _, s := range a.repAnchors(e.To, false) {
				if p := propOf(props, s, false); p != nil {
					bwd = append(bwd, srcConstraint{prop: p, direct: false})
				}
			}
		}
	}
	scr.fwdBuf, scr.bwdBuf = fwd, bwd
	return fwd, bwd
}

// repAnchors finds the mapped anchors that represent an unmapped
// relative: a DFS through unmapped nodes towards ancestors (forward) or
// descendants (backward), stopping at the first mapped node on each
// branch. At most two anchors are kept to bound the constraint count.
// The result is scratch-backed: consume it before the next call.
func (a *amender) repAnchors(start int, towardsParents bool) []int {
	scr := a.scratch()
	epoch := scr.beginMark()
	out := scr.repOut[:0]
	stack := scr.repStack[:0]
	scr.mark[start] = epoch
	stack = append(stack, start)
	for len(stack) > 0 && len(out) < 2 {
		v := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		var neigh []int
		if towardsParents {
			neigh = a.g.Parents(v)
		} else {
			neigh = a.g.Children(v)
		}
		for _, w := range neigh {
			if scr.mark[w] == epoch {
				continue
			}
			scr.mark[w] = epoch
			if a.sess.M.Placed(w) {
				out = append(out, w)
				if len(out) >= 2 {
					break
				}
			} else {
				stack = append(stack, w)
			}
		}
	}
	scr.repOut, scr.repStack = out, stack
	return out
}

// appendImpliedTimes appends, in ascending order, the execution times a
// direct constraint implies at pe. Tuple lists are sorted ascending by
// cycles and cycle counts are distinct per (PE, constraint), so the
// forward mapping T = srcTime + L - dist*II is strictly increasing and
// the backward one strictly decreasing (hence the reverse walk): each
// produced list is strictly ascending with no duplicates.
func appendImpliedTimes(dst []int, c srcConstraint, pe, ii int) []int {
	list := c.prop.cyclesAt(pe)
	if c.prop.forward {
		for _, cycles := range list {
			dst = append(dst, c.prop.srcTime+cycles-c.dist*ii)
		}
	} else {
		for i := len(list) - 1; i >= 0; i-- {
			dst = append(dst, c.prop.srcTime-list[i]+c.dist*ii)
		}
	}
	return dst
}

// directTimes intersects the execution times implied by all direct
// constraints at one PE, then filters by the loose representative
// inequalities. The first direct constraint seeds the time set; each
// further direct constraint intersects it. Because each constraint's
// implied-time list is strictly ascending, the set intersection is a
// two-pointer merge over scratch slices — same ascending result the
// old map-then-sort produced, without the per-PE allocations. The
// returned slice is scratch-backed and valid until the next call.
func (a *amender) directTimes(pe int, fwd, bwd []srcConstraint) []int {
	scr := a.scratch()
	ii := a.sess.M.II
	times := scr.timesA[:0]
	seeded := false
	intersectWith := func(c srcConstraint) {
		if !seeded {
			times = appendImpliedTimes(times, c, pe, ii)
			seeded = true
			return
		}
		other := appendImpliedTimes(scr.timesB[:0], c, pe, ii)
		scr.timesB = other
		k, i, j := 0, 0, 0
		for i < len(times) && j < len(other) {
			switch {
			case times[i] < other[j]:
				i++
			case times[i] > other[j]:
				j++
			default:
				times[k] = times[i]
				k++
				i++
				j++
			}
		}
		times = times[:k]
	}
	for _, c := range fwd {
		if c.direct {
			intersectWith(c)
		}
	}
	for _, c := range bwd {
		if c.direct {
			intersectWith(c)
		}
	}
	k := 0
	for _, T := range times {
		if a.repsAdmit(pe, T, fwd, bwd) {
			times[k] = T
			k++
		}
	}
	times = times[:k]
	scr.timesA = times
	return times
}

// repOnlyTimes derives candidate times when v has only representative
// constraints: every time in the span the representatives admit. The
// returned slice is scratch-backed and valid until the next call.
func (a *amender) repOnlyTimes(pe int, fwd, bwd []srcConstraint) []int {
	lo, hi := a.repSpan(pe, fwd, bwd)
	if lo > hi {
		return nil
	}
	if hi-lo > 3*a.sess.M.II {
		hi = lo + 3*a.sess.M.II
	}
	scr := a.scratch()
	out := scr.timesA[:0]
	for T := lo; T <= hi; T++ {
		out = append(out, T)
	}
	scr.timesA = out
	return out
}

// repsAdmit applies the loose representative filters: a forward
// representative must have some tuple at pe arriving no later than T, a
// backward one some tuple departing no earlier than T.
func (a *amender) repsAdmit(pe, T int, fwd, bwd []srcConstraint) bool {
	for _, c := range fwd {
		if c.direct {
			continue
		}
		min := c.prop.minCycles(pe)
		if min < 0 || c.prop.srcTime+min > T {
			return false
		}
	}
	for _, c := range bwd {
		if c.direct {
			continue
		}
		min := c.prop.minCycles(pe)
		if min < 0 || c.prop.srcTime-min < T {
			return false
		}
	}
	return true
}

// repSpan derives the admissible [lo, hi] execution range at pe from
// representative constraints alone.
func (a *amender) repSpan(pe int, fwd, bwd []srcConstraint) (lo, hi int) {
	const big = int(^uint(0) >> 2)
	lo, hi = -big, big
	for _, c := range fwd {
		min := c.prop.minCycles(pe)
		if min < 0 {
			return 1, 0
		}
		if b := c.prop.srcTime + min; b > lo {
			lo = b
		}
	}
	for _, c := range bwd {
		min := c.prop.minCycles(pe)
		if min < 0 {
			return 1, 0
		}
		if b := c.prop.srcTime - min; b < hi {
			hi = b
		}
	}
	if lo == -big && hi == big {
		return 1, 0
	}
	if lo == -big {
		lo = hi - 2*a.sess.M.II
	}
	if hi == big {
		hi = lo + 2*a.sess.M.II
	}
	return lo, hi
}

// fallbackCandidates handles nodes with no reachable anchors at all (an
// entirely unmapped component): any free compatible slot in a default
// schedule window, appended to out.
func (a *amender) fallbackCandidates(v int, out []pcand) []pcand {
	base := 0
	if asap, err := a.g.ASAP(a.sess.M.II); err == nil {
		base = asap[v]
	}
	w := placer.TimeWindow(a.sess, v, base, placer.DefaultSlack(a.sess.M.II))
	for _, pl := range placer.Candidates(a.sess, v, w, nil) {
		out = append(out, pcand{pe: pl.PE, T: pl.Time})
	}
	return out
}
