package core

import (
	"math/bits"

	"rewire/internal/mrrg"
)

// propagation holds the probe flood from one source anchor: every MRRG
// resource reachable from (forward) or reaching (backward) the anchor's
// FU within the round budget, layer by layer, plus the per-PE arrival
// tuples and, built on demand, the BFS tree behind the probe paths.
//
// A tuple (source, direction, PE q, cycles L) means: a value produced by
// the source L cycles before consumption (forward), or consumed by the
// source L cycles after production (backward), can connect to an
// operation executing on PE q — i.e. a resource chain of length L-1
// exists between the anchor FU and q's FU. Tuples are deduplicated per
// (PE, cycles), exactly the paper's rule (same source, same routing
// cycle count, same direction → one tuple).
//
// A flood state is a (slot, depth) pair: every MRRG arc advances the
// modulo time by one, so depth e fixes the time step (seedTime+e
// forward, seedTime-e backward, modulo II) and the slot alone names the
// resource. Layer e of the flood is therefore a slot bitset, and layer
// e+1 is the union of the slot-adjacency rows of layer e's slots masked
// by the slots a probe may use at depth e+1 (docs/PERFORMANCE.md, "Probe
// floods: bitset layers and the lazy tree").
type propagation struct {
	source  int
	forward bool
	srcTime int // anchor's absolute execution time

	g        *mrrg.Graph
	slotPE   []int32 // g.SlotPEs(forward)
	seedTime int
	seedSlot int32
	words    int // SlotWords of g
	numPEs   int
	// reach holds the flood's layers: layer e's slot bitset is
	// reach[e*words:(e+1)*words] for e < layers, and the last layer is
	// the deepest non-empty one.
	reach  []uint64
	layers int

	// arrive[pe] lists the tuple cycle counts at pe, ascending. The table
	// is epoch-stamped (the router-scratch idiom), with one epoch per
	// emitted layer: stamp[pe] is the epoch of the last layer that reached
	// pe, so arrive[pe] is live only when stamp[pe] > floodEpoch (the epoch
	// before the flood's first layer) and a second state of pe in one
	// layer is a one-compare dedup. A recycled propagation thus starts
	// with an empty table in O(1) while the per-PE lists keep their
	// capacity across floods. nArrivePEs counts the PEs with at least one
	// live tuple.
	arrive     [][]int
	stamp      []int64
	epoch      int64
	floodEpoch int64
	nArrivePEs int
	// tuples counts the tuples the flood kept and dedups the ones the
	// per-(PE, cycles) rule suppressed.
	tuples, dedups int

	// The BFS tree, grown by growTree only as deep as the probe paths
	// extracted so far need (most floods never have one extracted). For
	// depth d <= treeDepth, par[d*NumSlots+b] is the depth-(d-1) parent
	// slot of slot b at depth d, and first[d*numPEs+q] is the first
	// slot discovered at depth d whose tuple PE is q (-1 if none): the
	// tuple's probe path ends there. front is the depth-treeDepth frontier
	// in discovery order and next/todo are growTree's workspace. The tree
	// reads only the stored layers, never the session's occupancy, so it
	// is the tree an eager BFS would have built when the flood ran.
	treeDepth   int
	par, first  []int32
	front, next []int32
	todo        []uint64
}

// reset readies a recycled propagation for a flood with numPEs PEs: an
// empty arrival table and no tree.
func (p *propagation) reset(numPEs int) {
	if len(p.arrive) < numPEs {
		p.arrive = make([][]int, numPEs)
		p.stamp = make([]int64, numPEs)
		p.epoch = 0
	}
	p.floodEpoch = p.epoch
	p.numPEs = numPEs
	p.nArrivePEs = 0
	p.tuples, p.dedups = 0, 0
	p.treeDepth = -1
}

// resized returns s with length n, reallocating only when its capacity
// is short; the contents are not preserved or cleared.
func resized[T any](s []T, n int) []T {
	if cap(s) < n {
		return make([]T, n)
	}
	return s[:n]
}

// timeAt returns the modulo time step of the flood's depth-e layer.
func (p *propagation) timeAt(e int) int {
	if !p.forward {
		e = -e
	}
	ii := p.g.II
	return ((p.seedTime+e)%ii + ii) % ii
}

// nodeAt returns the MRRG node of slot b at depth e.
func (p *propagation) nodeAt(b int32, e int) mrrg.Node {
	return mrrg.Node(int(b)*p.g.II + p.timeAt(e))
}

// cyclesAt returns the tuple cycle counts present at PE q, ascending.
func (p *propagation) cyclesAt(q int) []int {
	if q >= len(p.stamp) || p.stamp[q] <= p.floodEpoch {
		return nil
	}
	return p.arrive[q]
}

// hasCycle reports whether a tuple with exactly the given cycle count
// exists at q.
func (p *propagation) hasCycle(q, cycles int) bool {
	for _, c := range p.cyclesAt(q) {
		if c == cycles {
			return true
		}
		if c > cycles {
			break
		}
	}
	return false
}

// minCycles returns the smallest tuple cycle count at q, or -1.
func (p *propagation) minCycles(q int) int {
	list := p.cyclesAt(q)
	if len(list) == 0 {
		return -1
	}
	return list[0]
}

// propagateAll floods probes from every anchor of U: forward from
// Parents(U), backward from Children(U) (§IV-C). The returned map is
// keyed by anchor node ID.
//
// The map and the propagations in it are owned by the amender's scratch:
// they stay valid until the next propagateAll call on the same amender,
// which releases them (releaseProps) for its own floods, or until the
// scratch is recycled.
//
// The floods run one after another on the amender's goroutine. They are
// independent by construction — each reads only the graph and one
// occupancy snapshot taken here, and writes only its own propagation —
// and contention-blind by design (the paper continues propagation
// through resources other tuples traversed). A worker pool over them
// used to win, but not once the floods became bitset layers and the
// public API sweeps one II attempt per core (docs/CONCURRENCY.md).
func (a *amender) propagateAll(u *cluster) map[int]*propagation {
	scr := a.scratch()
	scr.releaseProps()
	scr.parentsBuf = a.anchorsInto(u, true, scr.parentsBuf[:0])
	scr.childrenBuf = a.anchorsInto(u, false, scr.childrenBuf[:0])
	parents, children := scr.parentsBuf, scr.childrenBuf
	rounds := a.rounds(u, parents, children)

	ps := a.tr.StartSpan(a.cur, "propagate").
		WithInt("anchors", int64(len(parents)+len(children))).WithInt("rounds", int64(rounds))
	free := a.snapshot()
	props := scr.props
	flood := func(key, s int, forward bool) {
		sp := a.tr.StartSpan(ps, "probe").
			WithInt("anchor", int64(s)).WithBool("forward", forward)
		p := a.propagate(s, forward, rounds, free)
		sp.WithInt("tuples", int64(p.tuples)).WithInt("deduped", int64(p.dedups)).End()
		props[key] = p
		a.eff.PropagateTuples += int64(p.tuples)
		a.eff.TuplesDeduped += int64(p.dedups)
	}
	for _, s := range parents {
		flood(s, s, true)
	}
	for _, s := range children {
		// An anchor can be both parent and child of U; keep both
		// directions distinguishable via composite keys.
		key := s
		if sortedContains(parents, s) {
			key = backwardKey(s)
		}
		flood(key, s, false)
	}
	ps.End()
	return props
}

// snapshot takes the occupancy snapshot the floods of one propagateAll
// share: the free routing slots of every modulo time step (see
// mrrg.State.FreeRoutingSlots), in the scratch.
func (a *amender) snapshot() []uint64 {
	scr := a.scratch()
	g := a.sess.Graph
	scr.free = resized(scr.free, g.II*g.SlotWords())
	a.sess.State.FreeRoutingSlots(scr.free)
	return scr.free
}

// backwardKey disambiguates an anchor that needs both directions.
func backwardKey(s int) int { return -s - 1 }

// propOf fetches the propagation of anchor s in the wanted direction.
func propOf(props map[int]*propagation, s int, forward bool) *propagation {
	if p, ok := props[s]; ok && p.forward == forward {
		return p
	}
	if p, ok := props[backwardKey(s)]; ok && p.forward == forward {
		return p
	}
	return nil
}

// rounds computes the propagation round budget (§IV-C): three times the
// maximum cycle difference between Parents(U) and Children(U); when
// either side is empty, five times the longest path within U. The result
// is clamped to the router's latency bound so extracted paths stay
// routable, with a floor of II+2 so probes can always wrap one slot.
func (a *amender) rounds(u *cluster, parents, children []int) int {
	mult := a.opt.RoundsAnchored
	base := 0
	if len(parents) > 0 && len(children) > 0 {
		minP, maxC := int(^uint(0)>>1), -int(^uint(0)>>1)
		for _, p := range parents {
			if t := a.sess.M.Place[p].Time; t < minP {
				minP = t
			}
		}
		for _, c := range children {
			if t := a.sess.M.Place[c].Time; t > maxC {
				maxC = t
			}
		}
		base = maxC - minP
	} else {
		mult = a.opt.RoundsUnanchored
		base = a.g.LongestPathWithin(u.in) + 1
	}
	if base < 1 {
		base = 1
	}
	r := mult * base
	if min := a.sess.M.II + 2; r < min {
		r = min
	}
	if max := a.router.MaxLat() - 1; r > max {
		r = max
	}
	return r
}

// propagate floods probes from anchor s's FU over the free-slot snapshot
// free (snapshot). Forward probes walk MRRG successors using resources
// free or already held by s's own net at the matching phase (probes may
// ride s's existing route tree); backward probes walk predecessors over
// free resources (the future producer's net does not exist yet). Bank
// ports are never crossed. Probes ignore contention BETWEEN sources —
// the paper continues propagation "even when hardware resources have
// been traversed by other propagation tuples" — which is why generated
// placements must later be verified by real routing.
func (a *amender) propagate(s int, forward bool, rounds int, free []uint64) *propagation {
	g := a.sess.Graph
	pl := a.sess.M.Place[s]
	scr := a.scratch()
	p := scr.newProp(a.sess.M.Arch.NumPEs())
	p.source = s
	p.forward = forward
	p.srcTime = pl.Time
	p.g = g
	// Forward probes deliver to the PE a resource feeds, backward probes
	// connect to a producer on the resource's own PE.
	p.slotPE = g.SlotPEs(forward)
	seed := g.FU(pl.PE, pl.Time)
	p.seedTime = g.Time(seed)
	w := g.SlotWords()
	p.words = w
	p.reach = resized(p.reach, (rounds+1)*w)
	layer := p.reach[:w]
	clear(layer)
	p.seedSlot = int32(g.Slot(seed))
	layer[p.seedSlot>>6] |= 1 << (p.seedSlot & 63)
	p.emitLayer(0)
	p.layers = 1

	rows := g.SlotRows(forward)
	for e := 0; e < rounds; e++ {
		cur := p.reach[e*w : (e+1)*w]
		next := p.reach[(e+1)*w : (e+2)*w]
		clear(next)
		for i, word := range cur {
			for ; word != 0; word &= word - 1 {
				b := i<<6 | bits.TrailingZeros64(word)
				for k, r := range rows[b*w : (b+1)*w] {
					next[k] |= r
				}
			}
		}
		t := p.timeAt(e + 1)
		usable := free[t*w : (t+1)*w]
		if forward {
			// Forward probes may also ride s's own net: it holds route[e]
			// of each routed out-edge at phase e+1, the phase of this
			// layer, and a route is a chain of one-cycle arcs from s's FU,
			// so route[e] sits at this layer's time step.
			own := append(scr.own[:0], usable...)
			for _, eid := range a.g.OutEdges(s) {
				if r := a.sess.M.Routes[eid]; e < len(r) && g.Kind(r[e]) != mrrg.KindBank {
					b := g.Slot(r[e])
					own[b>>6] |= 1 << (b & 63)
				}
			}
			scr.own, usable = own, own
		}
		live := uint64(0)
		for k := range next {
			next[k] &= usable[k]
			live |= next[k]
		}
		if live == 0 {
			break
		}
		p.emitLayer(e + 1)
		p.layers = e + 2
	}
	return p
}

// emitLayer records the arrival tuples of layer e: a value can connect
// between the anchor and an operation on the PE of each reached slot
// with e+1 total cycles. One tuple is kept per PE; every further slot of
// the PE is deduplicated (the per-(PE, cycles) rule). Layers are emitted
// in increasing depth, so each list stays sorted.
func (p *propagation) emitLayer(e int) {
	p.epoch++
	w := p.words
	for i, word := range p.reach[e*w : (e+1)*w] {
		for ; word != 0; word &= word - 1 {
			q := p.slotPE[i<<6|bits.TrailingZeros64(word)]
			if q < 0 {
				continue
			}
			last := p.stamp[q]
			if last == p.epoch {
				p.dedups++
				continue
			}
			p.stamp[q] = p.epoch
			list := p.arrive[q]
			if last <= p.floodEpoch {
				// First tuple at q this flood: claim the list, reusing its
				// capacity.
				list = list[:0]
				p.nArrivePEs++
			}
			p.tuples++
			p.arrive[q] = append(list, e+1)
		}
	}
}

// growTree extends the BFS tree to the given depth (< layers). It runs
// the ordered BFS an eager flood would have run — the same frontier
// order, the same Succs/Preds order — except that a state is admitted
// by its bit in the stored layer instead of an occupancy test: a slot
// adjacent to layer d-1 is in layer d exactly when it was usable there.
// A todo copy of the layer doubles as the per-depth visited set.
func (p *propagation) growTree(depth int) {
	g := p.g
	ns := g.NumSlots()
	npe := p.numPEs
	if p.treeDepth < 0 {
		p.par = resized(p.par, p.layers*ns)
		p.first = resized(p.first, p.layers*npe)
		first := p.first[:npe]
		for i := range first {
			first[i] = -1
		}
		b := p.seedSlot
		p.par[b] = -1
		first[p.slotPE[b]] = b
		p.front = append(p.front[:0], b)
		p.treeDepth = 0
	}
	w := p.words
	p.todo = resized(p.todo, w)
	for d := p.treeDepth + 1; d <= depth; d++ {
		copy(p.todo, p.reach[d*w:(d+1)*w])
		par := p.par[d*ns : (d+1)*ns]
		first := p.first[d*npe : (d+1)*npe]
		for i := range first {
			first[i] = -1
		}
		next := p.next[:0]
		t := p.timeAt(d - 1)
		for _, a := range p.front {
			n := mrrg.Node(int(a)*g.II + t)
			adj := g.Succs(n)
			if !p.forward {
				adj = g.Preds(n)
			}
			for _, m := range adj {
				b := g.Slot(m)
				bit := uint64(1) << (b & 63)
				if p.todo[b>>6]&bit == 0 {
					continue
				}
				p.todo[b>>6] &^= bit
				par[b] = a
				next = append(next, int32(b))
				if q := p.slotPE[b]; q >= 0 && first[q] < 0 {
					first[q] = int32(b)
				}
			}
		}
		p.front, p.next = next, p.front
		p.treeDepth = d
	}
}

// extractPath rebuilds the resource chain behind the tuple (q, lat):
// lat-1 resources ordered by phase (path[i] is occupied at phase i+1
// relative to the producer). It is the "reuse of wire information" fast
// path — verification tries this chain before falling back to the
// router. The tuple must exist (hasCycle). The chain is written into
// dst, reallocated only when its capacity is short, so verification
// extracts into scratch and copies out only the chains it routes.
func (p *propagation) extractPath(dst []mrrg.Node, q, lat int) []mrrg.Node {
	if lat <= 1 {
		return dst[:0]
	}
	d := lat - 1
	if p.treeDepth < d {
		p.growTree(d)
	}
	ns := p.g.NumSlots()
	b := p.first[d*p.numPEs+q]
	path := resized(dst, d)
	// Walk from the tuple's end state back to the seed. Backward states
	// count from the consumer: the state at depth e holds the resource at
	// phase lat-e.
	for e := d; e >= 1; e-- {
		if p.forward {
			path[e-1] = p.nodeAt(b, e)
		} else {
			path[lat-1-e] = p.nodeAt(b, e)
		}
		b = p.par[e*ns+int(b)]
	}
	return path
}
