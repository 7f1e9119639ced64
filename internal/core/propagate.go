package core

import (
	"runtime"
	"sync"
	"sync/atomic"

	"rewire/internal/mrrg"
)

// propagation holds the probe flood from one source anchor: every MRRG
// resource reachable from (forward) or reaching (backward) the anchor's
// FU within the round budget, with parent pointers for path extraction,
// plus the per-PE arrival tuples.
//
// A tuple (source, direction, PE q, cycles L) means: a value produced by
// the source L cycles before consumption (forward), or consumed by the
// source L cycles after production (backward), can connect to an
// operation executing on PE q — i.e. a resource chain of length L-1
// exists between the anchor FU and q's FU. Tuples are deduplicated per
// (PE, cycles), exactly the paper's rule (same source, same routing
// cycle count, same direction → one tuple).
type propagation struct {
	source  int
	forward bool
	srcTime int // anchor's absolute execution time
	rounds  int

	g *mrrg.Graph
	// A flood state is a (slot, depth) pair, not a (node, depth) one:
	// every MRRG arc advances the modulo time by one, so depth e fixes
	// the time step (seedTime+e forward, seedTime-e backward, modulo II)
	// and the slot alone names the resource — the router's compact-state
	// argument, which makes the scratch II times smaller.
	seedTime int
	par      []int32 // state index -> predecessor state index (-1 = seed)
	visited  []bool
	// arrive[pe] lists tuples sorted by cycles; endState points at the
	// final resource of the probe path for extraction. The table is
	// epoch-stamped (the PR 1 router-scratch idiom): arrive[pe] is live
	// only when arriveStamp[pe] == arriveEpoch, so a pooled propagation
	// starts with an empty table in O(1) while the per-PE tuple lists
	// keep their capacity across floods. nArrivePEs counts the PEs with
	// at least one live tuple (what len(arrive) used to report).
	arrive      [][]arrival
	arriveStamp []int64
	arriveEpoch int64
	nArrivePEs  int
	// frontA/frontB are the BFS frontier double-buffer.
	frontA, frontB []mrrg.Node
	// tuples counts the tuples the flood kept and dedups the ones the
	// per-(PE, cycles) rule suppressed; plain ints because each flood is
	// single-goroutine, summed into the attempt's tally once the
	// propagateAll pool has joined.
	tuples, dedups int
}

// propPool recycles propagation headers together with their arrival
// tables and frontier buffers. Floods run on worker-pool goroutines, so
// the pool is global rather than part of amendScratch.
var propPool = sync.Pool{New: func() any { return new(propagation) }}

// getProp draws a propagation with an empty arrival table covering
// numPEs PEs.
func getProp(numPEs int) *propagation {
	p := propPool.Get().(*propagation)
	if len(p.arrive) < numPEs {
		p.arrive = make([][]arrival, numPEs)
		p.arriveStamp = make([]int64, numPEs)
		p.arriveEpoch = 0
	}
	p.arriveEpoch++
	p.nArrivePEs = 0
	p.tuples, p.dedups = 0, 0
	return p
}

type arrival struct {
	cycles   int
	endState int32
}

func (p *propagation) stateIndex(n mrrg.Node, e int) int32 {
	return int32(p.g.Slot(n)*(p.rounds+1) + e)
}

func (p *propagation) stateNode(s int32) mrrg.Node {
	slot, e := int(s)/(p.rounds+1), int(s)%(p.rounds+1)
	if !p.forward {
		e = -e
	}
	ii := p.g.II
	t := ((p.seedTime+e)%ii + ii) % ii
	return mrrg.Node(slot*ii + t)
}

// cyclesAt returns the tuple cycle counts present at PE q.
func (p *propagation) cyclesAt(q int) []arrival {
	if q >= len(p.arriveStamp) || p.arriveStamp[q] != p.arriveEpoch {
		return nil
	}
	return p.arrive[q]
}

// hasCycle reports whether a tuple with exactly the given cycle count
// exists at q, returning its arrival for path extraction.
func (p *propagation) hasCycle(q, cycles int) (arrival, bool) {
	for _, ar := range p.cyclesAt(q) {
		if ar.cycles == cycles {
			return ar, true
		}
		if ar.cycles > cycles {
			break
		}
	}
	return arrival{}, false
}

// minCycles returns the smallest tuple cycle count at q, or -1.
func (p *propagation) minCycles(q int) int {
	list := p.cyclesAt(q)
	if len(list) == 0 {
		return -1
	}
	return list[0].cycles
}

// propTask names one probe flood of a propagateAll dispatch.
type propTask struct {
	key     int // props map key (backwardKey for dual-role anchors)
	source  int
	forward bool
}

// propagateAll floods probes from every anchor of U: forward from
// Parents(U), backward from Children(U) (§IV-C). The returned map is
// keyed by anchor node ID.
//
// The map and the propagations in it are owned by the amender's scratch:
// they are invalidated by releaseProps and by the next propagateAll call
// on the same amender.
//
// The floods are independent by construction — each reads only the
// shared session (placements, occupancy, graph) and writes only its own
// propagation — and contention-blind by design (the paper continues
// propagation through resources other tuples traversed), so they run on
// a bounded worker pool. Results are bit-identical to the serial order:
// each flood is a deterministic function of (anchor, direction, rounds),
// and tasks land in pre-assigned slots regardless of completion order.
func (a *amender) propagateAll(u *cluster) map[int]*propagation {
	scr := a.scratch()
	scr.parentsBuf = a.anchorsInto(u, true, scr.parentsBuf[:0])
	scr.childrenBuf = a.anchorsInto(u, false, scr.childrenBuf[:0])
	parents, children := scr.parentsBuf, scr.childrenBuf
	rounds := a.rounds(u, parents, children)

	scr.tasks = scr.tasks[:0]
	for _, s := range parents {
		scr.tasks = append(scr.tasks, propTask{key: s, source: s, forward: true})
	}
	for _, s := range children {
		// An anchor can be both parent and child of U; the backward
		// flood is stored under the same key only if no forward one
		// exists (forward constraints are the more selective ones), so
		// keep both directions distinguishable via composite keys.
		key := s
		if sortedContains(parents, s) {
			key = backwardKey(s)
		}
		scr.tasks = append(scr.tasks, propTask{key: key, source: s, forward: false})
	}
	tasks := scr.tasks

	if cap(scr.results) < len(tasks) {
		scr.results = make([]*propagation, len(tasks))
	}
	results := scr.results[:len(tasks)]
	ps := a.tr.StartSpan(a.cur, "propagate").
		WithInt("anchors", int64(len(tasks))).WithInt("rounds", int64(rounds))
	// runTask floods one anchor under its own probe span. Span starts are
	// tracer-synchronised, so the instrumentation is worker-pool-safe;
	// with tracing disabled every call is a nil check. Each flood counts
	// its own tuples; the tally sums them after the pool joins.
	runTask := func(i int, t propTask) {
		sp := a.tr.StartSpan(ps, "probe").
			WithInt("anchor", int64(t.source)).WithBool("forward", t.forward)
		p := a.propagate(t.source, t.forward, rounds)
		sp.WithInt("tuples", int64(p.tuples)).WithInt("deduped", int64(p.dedups)).End()
		results[i] = p
	}

	workers := runtime.GOMAXPROCS(0)
	if workers > len(tasks) {
		workers = len(tasks)
	}
	if workers <= 1 {
		for i, t := range tasks {
			runTask(i, t)
		}
	} else {
		var next atomic.Int64
		var wg sync.WaitGroup
		wg.Add(workers)
		for w := 0; w < workers; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					runTask(i, tasks[i])
				}
			}()
		}
		wg.Wait()
	}
	ps.End()

	props := scr.props
	clear(props)
	for i, t := range tasks {
		props[t.key] = results[i]
		a.eff.PropagateTuples += int64(results[i].tuples)
		a.eff.TuplesDeduped += int64(results[i].dedups)
	}
	return props
}

// releaseProps returns the flood scratch of a propagation set to the
// pools and empties the map. The propagations must not be used
// afterwards (extractPath would walk a recycled parent array); because
// the entries are deleted here, releasing the same map twice is a no-op.
func releaseProps(props map[int]*propagation) {
	for k, p := range props {
		delete(props, k)
		if p == nil {
			continue
		}
		if p.par != nil {
			putInt32Scratch(p.par)
			p.par = nil
		}
		p.g = nil
		propPool.Put(p)
	}
}

// Pools of flood scratch. A probe flood needs two NumSlots*(rounds+1)
// arrays (parent pointers and a visited set); reallocating them per
// anchor per amendment iteration dominated the allocation profile, so
// both are pooled: the visited set returns as soon as its flood
// finishes, the parent array when the cluster iteration is done with
// the propagation (releaseProps).
var (
	int32ScratchPool = sync.Pool{New: func() any { return new([]int32) }}
	boolScratchPool  = sync.Pool{New: func() any { return new([]bool) }}
)

func getInt32Scratch(n int) []int32 {
	p := int32ScratchPool.Get().(*[]int32)
	if cap(*p) < n {
		*p = make([]int32, n)
	}
	return (*p)[:n]
}

func putInt32Scratch(s []int32) {
	int32ScratchPool.Put(&s)
}

// getBoolScratch returns an all-false slice of length n.
func getBoolScratch(n int) []bool {
	p := boolScratchPool.Get().(*[]bool)
	if cap(*p) < n {
		*p = make([]bool, n)
		return (*p)[:n]
	}
	s := (*p)[:n]
	clear(s)
	return s
}

func putBoolScratch(s []bool) {
	boolScratchPool.Put(&s)
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

// propagate floods probes from anchor s's FU. Forward probes walk MRRG
// successors using resources free or already held by s's own net at the
// matching phase (probes may ride s's existing route tree); backward
// probes walk predecessors over free resources (the future producer's
// net does not exist yet). Probes ignore contention BETWEEN sources —
// the paper continues propagation "even when hardware resources have
// been traversed by other propagation tuples" — which is why generated
// placements must later be verified by real routing.
func (a *amender) propagate(s int, forward bool, rounds int) *propagation {
	pl := a.sess.M.Place[s]
	states := a.sess.Graph.NumSlots() * (rounds + 1)
	p := getProp(a.sess.M.Arch.NumPEs())
	p.source = s
	p.forward = forward
	p.srcTime = pl.Time
	p.rounds = rounds
	p.g = a.sess.Graph
	p.par = getInt32Scratch(states)
	p.visited = getBoolScratch(states)
	seed := a.sess.Graph.FU(pl.PE, pl.Time)
	p.seedTime = a.sess.Graph.Time(seed)
	si := p.stateIndex(seed, 0)
	p.visited[si] = true
	p.par[si] = -1
	p.emit(seed, 0, si)

	frontier, next := p.frontA[:0], p.frontB[:0]
	frontier = append(frontier, seed)
	for e := 0; e < rounds && len(frontier) > 0; e++ {
		next = next[:0]
		for _, n := range frontier {
			cur := p.stateIndex(n, e)
			var adj []mrrg.Node
			if forward {
				adj = p.g.Succs(n)
			} else {
				adj = p.g.Preds(n)
			}
			for _, nn := range adj {
				ni := p.stateIndex(nn, e+1)
				if p.visited[ni] {
					continue
				}
				if !a.probeUsable(nn, s, forward, e+1) {
					continue
				}
				p.visited[ni] = true
				p.par[ni] = cur
				p.emit(nn, e+1, ni)
				next = append(next, nn)
			}
		}
		frontier, next = next, frontier
	}
	// Hand the (possibly grown) frontier buffers back to the pooled
	// propagation for the next flood.
	p.frontA, p.frontB = frontier, next
	// The visited set only guards the flood itself; the parent array
	// stays live for extractPath until releaseProps.
	putBoolScratch(p.visited)
	p.visited = nil
	return p
}

// probeUsable decides whether a probe may traverse resource n at step e.
func (a *amender) probeUsable(n mrrg.Node, s int, forward bool, e int) bool {
	if a.sess.Graph.Kind(n) == mrrg.KindBank {
		return false
	}
	if forward {
		return a.sess.State.Usable(n, mrrg.Net(s), e)
	}
	return a.sess.State.Free(n)
}

// emit records the arrival tuple for a visited state: a value can
// connect between the anchor and an operation on the adjacent PE with
// e+1 total cycles. Forward probes deliver to FeedsPE(n); backward
// probes connect to a producer on the resource's own PE.
func (p *propagation) emit(n mrrg.Node, e int, state int32) {
	var q int
	if p.forward {
		q = p.g.FeedsPE(n)
	} else {
		q = p.g.PE(n)
	}
	if q < 0 {
		return
	}
	cycles := e + 1
	var list []arrival
	if p.arriveStamp[q] == p.arriveEpoch {
		list = p.arrive[q]
	} else {
		// First tuple at q this flood: claim the slot, reusing the old
		// list's capacity.
		p.arriveStamp[q] = p.arriveEpoch
		list = p.arrive[q][:0]
		p.nArrivePEs++
	}
	// Dedup per (PE, cycles): BFS visits states in increasing e, so the
	// list stays sorted and the check is a tail comparison.
	if len(list) > 0 && list[len(list)-1].cycles == cycles {
		p.dedups++
		return
	}
	p.tuples++
	p.arrive[q] = append(list, arrival{cycles: cycles, endState: state})
}

// extractPath rebuilds the resource chain behind an arrival: lat-1
// resources ordered by phase (path[i] is occupied at phase i+1 relative
// to the producer). It is the "reuse of wire information" fast path —
// verification tries this chain before falling back to the router.
func (p *propagation) extractPath(ar arrival, lat int) []mrrg.Node {
	if lat <= 1 {
		return []mrrg.Node{}
	}
	path := make([]mrrg.Node, lat-1)
	state := ar.endState
	if p.forward {
		for e := lat - 1; e >= 1; e-- {
			path[e-1] = p.stateNode(state)
			state = p.par[state]
		}
	} else {
		// Backward states count from the consumer: the state at depth b
		// holds the resource at phase lat-b.
		for b := lat - 1; b >= 1; b-- {
			path[lat-1-b] = p.stateNode(state)
			state = p.par[state]
		}
	}
	return path
}
