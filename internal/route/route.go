// Package route implements routing over the MRRG: finding a minimum-cost
// chain of routing resources of an exact latency between a producer FU
// and a consumer FU. Latency is exact because in a modulo schedule the
// consumer's execution cycle is fixed by its placement; the value must
// arrive on that cycle, not merely by it.
//
// The search runs over layered states (resource, elapsed): every MRRG
// adjacency step advances elapsed by one cycle, so a route of latency L
// visits exactly L-1 intermediate resources at elapsed 1..L-1. The cost
// of a resource may depend on the phase (= elapsed) at which it is
// crossed, which lets PathFinder-style congestion negotiation and
// strict free-only routing share one engine.
//
// The search itself is A* guided by a precomputed distance oracle
// (package dist): states that provably cannot enter the destination FU
// in the remaining cycles are pruned exactly (including over torus wrap
// links, which the old Manhattan prune over-estimated), and the queue
// priority is g + h with h an admissible, consistent lower bound on the
// remaining cost, so returned path costs equal the uninformed Dijkstra
// baseline bit for bit. See docs/PERFORMANCE.md for the argument.
package route

import (
	"math"
	"math/bits"
	"slices"

	"rewire/internal/dist"
	"rewire/internal/mrrg"
	"rewire/internal/trace"
)

// CostFn prices using resource n at the given phase for the net being
// routed. ok=false forbids the resource entirely. Costs must be
// non-negative. A nil CostFn prices strictly from the floor's rows (see
// Floor).
type CostFn func(n mrrg.Node, phase int) (cost float64, ok bool)

// StrictCost returns a CostFn admitting only resources that are free or
// already held by (net, phase), at unit cost — the final, conflict-free
// routing regime used by Rewire's verification and by committed routes.
// A nil CostFn with a floor naming st prices the same way without a
// call per successor; StrictCost is its reference, and the CostFn for
// callers with no State to name.
func StrictCost(st *mrrg.State, net mrrg.Net) CostFn {
	return func(n mrrg.Node, phase int) (float64, bool) {
		ok, shared := st.Admit(n, net, phase)
		if !ok {
			return 0, false
		}
		if shared {
			return 0.05, true // sharing an own-net resource is nearly free
		}
		return 1, true
	}
}

// StrictSharedCost is the minimum cost StrictCost can return: the
// own-net sharing discount. It is the correct FindPath floor whenever
// the routed net may already hold resources.
const StrictSharedCost = 0.05

// Floor is what FindPath knows about the costs its CostFn can admit; it
// builds the A* heuristic from it.
//
// Min is a lower bound on every admitted step cost. A Floor with only
// Min (see Flat) prices each remaining step at Min.
//
// Routes adds what the routed net already holds, for cost functions that
// discount only a resource the net holds at the phase it is crossed and
// charge at least the unit cost for any other (StrictCost, PathFinder's
// negotiated cost). Routes must list every resource the net holds at a
// phase >= 1, route[i] at phase i+1. Routes[e] for each e in Edges
// counts, or every route when Edges is nil; nil routes hold nothing.
// StrictFloor fills Routes and Edges from a session's own slices, so
// building a Floor never allocates.
//
// State, when set, names the occupancy the CostFn admits by: it must
// reject every routing resource that is neither free in State (see
// mrrg.State.FreeRows) nor listed at the crossed phase in Routes.
// StrictCost and PathFinder's negotiated cost admit exactly
// State.Admit's set, which is such a set when Routes lists every
// resource the net holds past phase 0. FindPath then skips the
// rejected successors a bitset word at a time instead of pricing each
// (see search); results are the same with State set or not.
//
// A nil CostFn means strict pricing from those rows, and needs State: a
// successor the routes list at the crossed phase costs StrictSharedCost,
// and any other that is free costs 1. That is StrictCost exactly when
// Routes lists every resource the routed net holds past phase 0 and
// nothing else, as StrictFloor's routes do: a listed resource is held by
// the net at the crossed phase, where Admit returns shared, and a free
// one is valid and unoccupied, where Admit returns ok and not shared.
type Floor struct {
	Min    float64
	Routes [][]mrrg.Node
	Edges  []int
	State  *mrrg.State
}

// Flat returns the Floor that prices every step at min or more.
func Flat(min float64) Floor { return Floor{Min: min} }

// eachRoute calls fn on every route the floor counts.
func (f Floor) eachRoute(fn func(route []mrrg.Node)) {
	if f.Edges == nil {
		for _, route := range f.Routes {
			fn(route)
		}
		return
	}
	for _, e := range f.Edges {
		fn(f.Routes[e])
	}
}

// replayTol is the slack, relative to the cost magnitude, with which the
// replay pass keeps relaxations whose bound ties the optimal cost: far
// above the rounding error of a sum of maxLat costs, far below any cost
// difference a CostFn in this repository produces.
const replayTol = 1e-9

// Router finds exact-latency paths on one MRRG. It reuses internal
// buffers across calls, so a Router is not safe for concurrent use; give
// each goroutine its own Router (see docs/CONCURRENCY.md). The distance
// oracle it embeds is immutable and shared between routers.
//
// The search state of (resource n, elapsed e) lives in one cell array
// indexed by (e, Slot(n)), not (n, e): every MRRG arc advances the modulo
// time by one, so within one search e fixes Time(n) and the slot alone
// names the resource. That makes the scratch II-fold smaller than a
// dense (node, elapsed) table; NewRouter allocates it up front. Cells are
// elapsed-major, so the successors of one state, which share an elapsed
// and sit at one PE's contiguous slots, share cache lines. They are
// epoch-stamped rather than cleared.
//
// The hot path is allocation-free apart from the returned path slice
// (which callers retain): the queue (see stateQueue) recycles its
// buffers between calls, paths are rebuilt in a router-owned buffer
// and copied out only when returned, and the retry ban set and
// duplicate detector are epoch-stamped per-node scratch instead of
// per-call maps.
type Router struct {
	g      *mrrg.Graph
	oracle *dist.Oracle
	maxLat int

	cells  []cell
	epoch  int32
	q      stateQueue
	stride int     // queue index stride per elapsed row: SlotWords·64
	rowOf  []int32 // the row of each queue index word: word / SlotWords

	// succRows and succSpan are the graph's forward SlotRows and their
	// non-zero word spans. free/freeStride and own/ownStride are the
	// current call's admission rows (see admission): free row t at
	// free[t*freeStride:], own row e at own[e*ownStride:]. ones is one
	// all-ones row, the free row of a call whose floor names no State.
	succRows   []uint64
	succSpan   []uint16
	free, own  []uint64
	freeStride int
	ownStride  int
	ownDirty   int // words of own written since they were last cleared
	ones       []uint64

	// flat and step are the heuristic tables of the current FindPath
	// call, indexed by elapsed; shared marks the phases at which the
	// routed net holds a resource that can still reach the destination.
	// See heuristics.
	flat, step []float64
	shared     []bool

	// path is the buffer reconstruct rebuilds each found path in.
	path []mrrg.Node

	// banStamp/banEpoch implement FindPath's per-call retry ban set;
	// nodeStamp/nodeEpoch back firstDuplicate. Both are per-node (not
	// per-state) scratch, stamped instead of cleared.
	banStamp  []int32
	banEpoch  int32
	nodeStamp []int32
	nodeEpoch int32

	// Expansions counts states popped from the queue across all calls;
	// the evaluation uses it as a hardware-independent work measure.
	Expansions int64

	// calls/found are tracer counters attached by Instrument; nil (the
	// default) makes FindPath's bookkeeping a pointer-check no-op.
	calls *trace.Counter
	found *trace.Counter
}

// cell is the search state of one (resource, elapsed) pair: the best
// cost found so far and the resource it was reached from at elapsed-1.
// It is valid only while stamp equals the router's epoch.
type cell struct {
	dist  float64
	from  mrrg.Node
	stamp int32
}

// NewRouter builds a router for g accepting latencies up to maxLat. A
// good bound is a few IIs plus the mesh diameter; latencies beyond that
// produce unprofitably long routes anyway.
func NewRouter(g *mrrg.Graph, maxLat int) *Router {
	if maxLat < 1 {
		maxLat = 1
	}
	w := g.SlotWords()
	r := &Router{
		g:         g,
		oracle:    dist.For(g),
		maxLat:    maxLat,
		cells:     make([]cell, g.NumSlots()*(maxLat+1)),
		q:         newStateQueue((maxLat + 1) * w),
		stride:    w * 64,
		rowOf:     make([]int32, (maxLat+1)*w),
		succRows:  g.SlotRows(true),
		succSpan:  g.SuccSpans(),
		own:       make([]uint64, (maxLat+1)*w),
		ones:      make([]uint64, w),
		flat:      make([]float64, maxLat+1),
		step:      make([]float64, maxLat+1),
		shared:    make([]bool, maxLat+1),
		path:      make([]mrrg.Node, maxLat),
		banStamp:  make([]int32, g.NumNodes()),
		nodeStamp: make([]int32, g.NumNodes()),
	}
	for i := range r.rowOf {
		r.rowOf[i] = int32(i / w)
	}
	for i := range r.ones {
		r.ones[i] = ^uint64(0)
	}
	r.free = r.ones
	return r
}

// MaxLat returns the largest latency this router accepts.
func (r *Router) MaxLat() int { return r.maxLat }

// NeedCycles returns the exact minimum latency of any route from a
// producer executing on fromPE to a consumer executing on toPE: the
// oracle hop count plus the final cycle entering the consumer's FU.
// Unlike a Manhattan bound it is exact on torus fabrics, so placement
// feasibility checks built on it never reject a routable candidate.
func (r *Router) NeedCycles(fromPE, toPE int) int {
	return r.oracle.NeedCycles(fromPE, toPE)
}

// Instrument attaches per-call tracer counters (route.findpath.calls,
// route.findpath.found) to this router. The cost when attached is one
// atomic add per FindPath call — never per queue pop; the PQ-pop total
// stays in Expansions, which mappers fold into "route.expansions" at
// attempt boundaries. A nil tracer leaves the router uninstrumented.
func (r *Router) Instrument(tr *trace.Tracer) {
	if !tr.Enabled() {
		return
	}
	r.calls = tr.Counter("route.findpath.calls")
	r.found = tr.Counter("route.findpath.found")
}

// DefaultMaxLat is a reasonable routing-latency bound for an
// architecture at a given II: wandering longer than two full IIs plus
// the mesh diameter is never profitable in practice.
func DefaultMaxLat(rows, cols, ii int) int {
	d := rows + cols + 2*ii + 2
	if d < 8 {
		d = 8
	}
	return d
}

// bumpEpoch advances an epoch counter, clearing its stamp slice on the
// (astronomically rare) int32 wrap so stale stamps can never alias a
// fresh epoch.
func bumpEpoch(e *int32, stamps []int32) int32 {
	if *e == math.MaxInt32 {
		for i := range stamps {
			stamps[i] = 0
		}
		*e = 0
	}
	*e++
	return *e
}

// cell returns the search state of resource n at elapsed e. Within one
// search every state reached has Time(n) = (Time(src)+e) mod II, so
// (e, Slot(n)) names it uniquely.
func (r *Router) cell(n mrrg.Node, e int) *cell { return r.slotCell(r.g.Slot(n), e) }

// slotCell returns the search state of the resource in slot at elapsed e.
func (r *Router) slotCell(slot, e int) *cell { return &r.cells[e*r.g.NumSlots()+slot] }

// nextEpoch starts a search by invalidating every cell in O(1), clearing
// the stamps on the (astronomically rare) int32 wrap.
func (r *Router) nextEpoch() int32 {
	if r.epoch == math.MaxInt32 {
		for i := range r.cells {
			r.cells[i].stamp = 0
		}
		r.epoch = 0
	}
	r.epoch++
	return r.epoch
}

// FindPath returns the minimum-cost chain of lat-1 routing resources
// carrying a value from the FU node src (where the producer executes) to
// the FU node dst (where the consumer executes, lat cycles later). The
// chain excludes both FUs. ok is false if no path of that exact latency
// exists under the cost function.
//
// floor must bound the costs the CostFn can admit (see Floor); it feeds
// the A* heuristic. Every exact-latency completion from elapsed e takes
// exactly lat-e further steps, of which only the final FU entry is free,
// so h = (lat-1-e)*floor.Min never overestimates and shrinks by at most
// the step cost per hop: the heuristic is admissible and consistent, and
// the returned path cost equals the Dijkstra minimum bit for bit. An
// exact Min (the true minimum step cost) collapses the feasible cone
// into one priority plateau, which the deterministic deeper-first
// tie-break crosses in about lat expansions when every admitted step
// costs exactly Min; a smaller bound is still correct, merely less
// informed, and 0 degenerates to plain Dijkstra ordering.
//
// At the own-net sharing floor, unit-cost steps split that plateau and
// the search pops many more states. When floor carries the net's routes
// and some phase cannot be shared, FindPath first runs A* on a tighter
// step-indexed bound to learn the optimal cost, then replays the search
// above pruned by that cost: the replay returns exactly the path the
// unpruned search would (see heuristics and docs/PERFORMANCE.md).
//
// The returned path never repeats a resource (a repeat would collide
// with a neighbouring iteration); when the cheapest path would repeat,
// up to three increasingly constrained retries look for a simple
// alternative. Two positions of a path on one resource share its modulo
// time, so they lie a positive multiple of II apart, while the path's
// positions, at elapsed 1..lat-1, span lat-2 cycles: a route with
// lat <= II+1 cannot repeat a resource, and is not checked.
//
// A nil cost prices strictly from floor's rows (see Floor); floor must
// then name a State, and FindPath panics if it does not.
func (r *Router) FindPath(src, dst mrrg.Node, lat int, cost CostFn, floor Floor) (path []mrrg.Node, ok bool) {
	r.calls.Add(1)
	if cost == nil && floor.State == nil {
		panic("route: FindPath with a nil CostFn needs a Floor naming a State")
	}
	if lat < 1 || lat > r.maxLat {
		return nil, false
	}
	split := r.heuristics(src, dst, lat, floor)
	defer r.q.trim()
	// The ban set opens on the first duplicate: until then nothing is
	// banned, and ban 0 tells search not to look.
	var ban int32
	for attempt := 0; attempt < 3; attempt++ {
		p, found := r.findOnce(src, dst, lat, cost, split, ban)
		if !found {
			return nil, false
		}
		if lat > r.g.II+1 {
			if dup := r.firstDuplicate(p); dup != mrrg.Invalid {
				if ban == 0 {
					ban = bumpEpoch(&r.banEpoch, r.banStamp)
				}
				r.banStamp[dup] = ban
				continue
			}
		}
		r.found.Add(1)
		return slices.Clone(p), true
	}
	return nil, false
}

// heuristics fills the call's heuristic tables for a search from src
// ending at (dst, lat) and reports whether they differ. It fills the
// call's admission rows too (see admission).
//
// flat[e] = floor.Min*(lat-1-e) orders the search whose path FindPath
// returns. step[e] sums, over the phases k in e+1..lat-1 that the remaining
// steps cross, Min if the net's routes hold a resource at phase k from
// which the destination is still reachable in time (the search prunes
// every other state at phase k), and the unit cost otherwise: only such
// a resource can be shared at phase k. step is therefore admissible and
// consistent too, and at least flat. It equals flat bit for bit when
// every phase is shareable or the floor has no routes, and then FindPath
// runs the flat-ordered search alone.
func (r *Router) heuristics(src, dst mrrg.Node, lat int, floor Floor) (split bool) {
	r.admission(src, lat, floor)
	lo := max(floor.Min, 0)
	for e := 0; e <= lat; e++ {
		h := 0.0
		if rem := lat - 1 - e; rem > 0 {
			h = lo * float64(rem)
		}
		r.flat[e] = h
	}
	if floor.Routes == nil || lo >= 1 {
		return false
	}
	drow := r.oracle.Row(r.g.PE(dst))
	shared := r.shared[:lat]
	clear(shared)
	open := lat - 1 // phases 1..lat-1 not yet known to be shareable
	mark := func(route []mrrg.Node) {
		for i, n := range route {
			k := i + 1
			if k >= lat {
				return
			}
			if !shared[k] && k+int(drow[r.g.FeedsPE(n)])+1 <= lat {
				shared[k] = true
				open--
			}
		}
	}
	floor.eachRoute(mark)
	if open == 0 {
		return false
	}
	// Walk back from the goal counting the unshareable phases ahead.
	// With none ahead, step[e] = lo*rem + 0 is flat[e] bit for bit.
	unshared := 0
	r.step[lat], r.step[lat-1] = 0, 0
	for e := lat - 2; e >= 0; e-- {
		if !shared[e+1] {
			unshared++
		}
		r.step[e] = lo*float64(lat-1-e-unshared) + float64(unshared)
	}
	return true
}

// admission fills the call's admission rows for a search from src of
// latency lat. With a floor State, free is its free rows and own row e
// marks the resources the floor's routes hold at phase e (route[e-1])
// that a search from src can cross at elapsed e, which the CostFn may
// admit as well; row 0, never searched, stays zero. Without a State, the
// free row is all ones at every step, and the CostFn alone decides.
func (r *Router) admission(src mrrg.Node, lat int, floor Floor) {
	if floor.State == nil {
		r.free, r.freeStride, r.ownStride = r.ones, 0, 0
		return
	}
	w := r.g.SlotWords()
	r.free, r.freeStride, r.ownStride = floor.State.FreeRows(), w, 0
	if floor.Routes == nil {
		return
	}
	clear(r.own[:r.ownDirty])
	r.ownStride, r.ownDirty = w, lat*w
	ii, t0 := r.g.II, r.g.Time(src)
	floor.eachRoute(func(route []mrrg.Node) {
		for i, n := range route[:min(len(route), lat-1)] {
			// Elapsed i+1 fixes the time of the state's resource; a
			// route leaving another FU may hold its slot at another.
			if r.g.Time(n) == (t0+i+1)%ii {
				b := r.g.Slot(n)
				r.own[(i+1)*w+b>>6] |= 1 << (b & 63)
			}
		}
	})
}

// findOnce finds the cheapest path under the current ban set. Unsplit,
// it is one search ordered by flat. Split, a first A* pass ordered by
// step finds the optimal cost c* (or fails, and so would the unsplit
// search); the second pass is the unsplit search, ordered by flat, that
// drops every relaxation whose cost plus step exceeds c*. By the
// admissibility of step, no state of an optimal path is dropped; by its
// consistency, such states are pushed only by such states; and since the
// queue's state order is total, they pop in the same relative order as
// unpruned, with the same costs and the same from pointers. So the
// replay returns the path the unsplit search returns, and pops fewer
// states. replayTol absorbs rounding: the two passes may sum one optimal
// cost in different orders.
func (r *Router) findOnce(src, dst mrrg.Node, lat int, cost CostFn, split bool, ban int32) ([]mrrg.Node, bool) {
	cut, bound := r.flat, math.Inf(1)
	if split {
		c, ok := r.search(src, dst, lat, cost, ban, r.step, r.step, bound)
		if !ok {
			return nil, false
		}
		cut, bound = r.step, c+replayTol*(1+c)
	}
	if _, ok := r.search(src, dst, lat, cost, ban, r.flat, cut, bound); !ok {
		return nil, false
	}
	return r.reconstruct(dst, lat), true
}

// search runs one best-first search from (src, 0) to (dst, lat) in the
// queue's state order, with priority f = g + order[e], skipping every
// relaxation with g + cut[e] > bound. It returns the goal's cost; the
// cells then hold the path's from pointers.
//
// A popped state's successors are the set bits of
//
//	succ[slot] & (free[t_next] | own[e+1]) & cone[lat-e-2],
//
// relaxed in ascending slot order, a word at a time over the span of
// the successor row (docs/PERFORMANCE.md, "Masked successors"). The
// cone row drops the successors that cannot enter dst's FU in the
// cycles left, and the admission rows those the CostFn would reject;
// what is left still passes the ban test and the CostFn, which prices
// it. A nil cost prices it from the rows instead: StrictSharedCost if
// its own bit is set, else 1. With a State, the admission rows hold
// exactly the successors Admit accepts, and the own bit exactly those
// it reports shared (see Floor), so these are StrictCost's prices and
// the search is the one StrictCost runs, pop for pop. Each successor of
// one pop is a distinct cell and the queue's pop order does not depend
// on push order, so relaxing them in slot order instead of Succs order
// leaves every pop, cost and from pointer as it was.
func (r *Router) search(src, dst mrrg.Node, lat int, cost CostFn, ban int32, order, cut []float64, bound float64) (float64, bool) {
	epoch := r.nextEpoch()
	g := r.g
	dstPE := g.PE(dst)
	// drow[p] is the exact minimum number of mesh links from PE p to the
	// destination PE (reverse-BFS table, so torus wrap links are counted
	// correctly — the Manhattan bound used before over-estimated them and
	// silently pruned reachable exact-latency states). A value held by
	// resource n needs drow[FeedsPE(n)]+1 cycles to be inside dst's FU;
	// cone row d holds the slots with drow[FeedsPE] <= d.
	drow := r.oracle.Row(dstPE)
	w := g.SlotWords()
	r.q.reset((lat + 1) * w)
	if int(drow[g.FeedsPE(src)])+1 > lat {
		return 0, false
	}
	cone := g.ConeRows(dstPE, drow)
	lastCone := len(cone)/w - 1
	// The queue holds state indices (lat-e)·stride + slot (queue.go);
	// the resource in slot at elapsed e is node slot·II + (t0+e) mod II.
	ii, t0, stride, ns := g.II, g.Time(src), r.stride, g.NumSlots()
	dstSlot, dstT, dstFU := g.Slot(dst), g.Time(dst), g.Kind(dst) == mrrg.KindFU
	succRows, succSpan := r.succRows, r.succSpan
	free, fstride, own, ostride := r.free, r.freeStride, r.own, r.ownStride
	*r.cell(src, 0) = cell{dist: 0, from: mrrg.Invalid, stamp: epoch}
	r.q.push(order[0], lat*stride+g.Slot(src))

	for !r.q.empty() {
		idx, f := r.q.pop()
		r.Expansions++
		row := int(r.rowOf[idx>>6])
		slot, e := idx-row*stride, lat-row
		cl := &r.cells[e*ns+slot]
		if cl.dist+order[e] != f {
			continue // stale: the state was re-queued cheaper under another f
		}
		curCost := cl.dist
		if e == lat {
			// Only the destination FU is ever queued at elapsed lat.
			return curCost, true
		}
		node := mrrg.Node(slot*ii + (t0+e)%ii)
		nextE := e + 1
		tn := (t0 + nextE) % ii
		// Remaining cost after reaching elapsed nextE.
		h, hc := order[nextE], cut[nextE]
		nextRow := (row - 1) * stride
		next := r.cells[nextE*ns : (nextE+1)*ns]
		succ := succRows[slot*w : (slot+1)*w]
		if nextE == lat {
			// The final hop must be exactly the destination FU;
			// routing through other FUs mid-path is allowed (move
			// operations). Entering the consumer FU costs nothing
			// extra: the consumer's own placement already reserved it.
			if tn == dstT && succ[dstSlot>>6]&(1<<(dstSlot&63)) != 0 && curCost+hc <= bound {
				if ncl := &next[dstSlot]; ncl.stamp != epoch || ncl.dist > curCost {
					*ncl = cell{dist: curCost, from: node, stamp: epoch}
					r.q.push(curCost+h, nextRow+dstSlot)
				}
			}
			continue
		}
		fr := free[tn*fstride : tn*fstride+w]
		ow := own[nextE*ostride : nextE*ostride+w]
		cn := cone[min(lat-nextE-1, lastCone)*w:]
		for i := int(succSpan[2*slot]); i < int(succSpan[2*slot+1]); i++ {
			for m := succ[i] & (fr[i] | ow[i]) & cn[i]; m != 0; m &= m - 1 {
				s := i<<6 | bits.TrailingZeros64(m)
				nxt := mrrg.Node(s*ii + tn)
				if nxt == dst && dstFU {
					// Passing through the consumer FU before the arrival
					// cycle would collide with the consumer's reservation.
					continue
				}
				if ban != 0 && r.banStamp[nxt] == ban {
					continue
				}
				c := 1.0
				if cost == nil {
					if ow[i]&(m&-m) != 0 {
						c = StrictSharedCost
					}
				} else {
					var usable bool
					if c, usable = cost(nxt, nextE); !usable {
						continue
					}
				}
				// Relax: record a strictly better cost to (nxt, nextE)
				// and queue it with priority cost-so-far + heuristic.
				nc := curCost + c
				if nc+hc > bound {
					continue
				}
				ncl := &next[s]
				if ncl.stamp == epoch && ncl.dist <= nc {
					continue
				}
				*ncl = cell{dist: nc, from: node, stamp: epoch}
				r.q.push(nc+h, nextRow+s)
			}
		}
	}
	return 0, false
}

// reconstruct rebuilds the path the cells hold into the router's path
// buffer, which the next search overwrites.
func (r *Router) reconstruct(dst mrrg.Node, lat int) []mrrg.Node {
	path := r.path[:lat-1]
	n := dst
	for e := lat; e >= 2; e-- {
		n = r.cell(n, e).from
		path[e-2] = n
	}
	return path
}

// firstDuplicate returns the first resource repeated within path, using
// the router's epoch-stamped per-node scratch instead of a per-call map.
func (r *Router) firstDuplicate(path []mrrg.Node) mrrg.Node {
	if len(path) < 2 {
		return mrrg.Invalid
	}
	seen := bumpEpoch(&r.nodeEpoch, r.nodeStamp)
	for _, n := range path {
		if r.nodeStamp[n] == seen {
			return n
		}
		r.nodeStamp[n] = seen
	}
	return mrrg.Invalid
}
