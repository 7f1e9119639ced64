package core

import (
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

// refPropagation is the occupancy-reading probe flood that the bitset
// floods replaced, kept as the differential reference for them: an
// ordered BFS over (slot, depth) states that tests every arc against the
// session's live State, records a parent pointer per state, and keeps
// the first-discovered state of each (PE, cycles) tuple as its probe
// path's end.
type refPropagation struct {
	forward  bool
	rounds   int
	seedTime int
	g        *mrrg.Graph

	par        []int32 // state index -> predecessor state index (-1 = seed)
	arrive     [][]refArrival
	nArrivePEs int
	tuples     int
	dedups     int

	// ownMatched counts states admitted because the anchor's net holds
	// the resource at the state's phase; ownMismatched counts arcs into
	// a resource the net holds at another phase, which a forward probe
	// may not ride.
	ownMatched, ownMismatched int
}

type refArrival struct {
	cycles   int
	endState int32
}

// refFlood floods probes from anchor s exactly as propagate did before
// the bitset layers, reading sess.State at every arc.
func refFlood(sess *mapping.Session, s int, forward bool, rounds int) *refPropagation {
	g := sess.Graph
	pl := sess.M.Place[s]
	p := &refPropagation{
		forward: forward,
		rounds:  rounds,
		g:       g,
		arrive:  make([][]refArrival, sess.M.Arch.NumPEs()),
	}
	states := g.NumSlots() * (rounds + 1)
	p.par = make([]int32, states)
	visited := make([]bool, states)
	seed := g.FU(pl.PE, pl.Time)
	p.seedTime = g.Time(seed)
	si := p.stateIndex(seed, 0)
	visited[si] = true
	p.par[si] = -1
	p.emit(seed, 0, si)

	frontier := []mrrg.Node{seed}
	for e := 0; e < rounds && len(frontier) > 0; e++ {
		var next []mrrg.Node
		for _, n := range frontier {
			cur := p.stateIndex(n, e)
			adj := g.Succs(n)
			if !forward {
				adj = g.Preds(n)
			}
			for _, nn := range adj {
				ni := p.stateIndex(nn, e+1)
				if visited[ni] {
					continue
				}
				if !p.probeUsable(sess.State, nn, s, e+1) {
					continue
				}
				visited[ni] = true
				p.par[ni] = cur
				p.emit(nn, e+1, ni)
				next = append(next, nn)
			}
		}
		frontier = next
	}
	return p
}

// probeUsable decides whether a probe may traverse resource n at step e.
func (p *refPropagation) probeUsable(st *mrrg.State, n mrrg.Node, s int, e int) bool {
	if p.g.Kind(n) == mrrg.KindBank {
		return false
	}
	if !p.forward {
		return st.Free(n)
	}
	if net, phase := st.Occupant(n); net == mrrg.Net(s) {
		if phase == e {
			p.ownMatched++
		} else {
			p.ownMismatched++
		}
	}
	return st.Usable(n, mrrg.Net(s), e)
}

func (p *refPropagation) stateIndex(n mrrg.Node, e int) int32 {
	return int32(p.g.Slot(n)*(p.rounds+1) + e)
}

func (p *refPropagation) stateNode(s int32) mrrg.Node {
	slot, e := int(s)/(p.rounds+1), int(s)%(p.rounds+1)
	if !p.forward {
		e = -e
	}
	ii := p.g.II
	t := ((p.seedTime+e)%ii + ii) % ii
	return mrrg.Node(slot*ii + t)
}

// emit records the arrival tuple for a visited state: forward probes
// deliver to FeedsPE(n), backward probes to the resource's own PE.
func (p *refPropagation) emit(n mrrg.Node, e int, state int32) {
	q := p.g.PE(n)
	if p.forward {
		q = p.g.FeedsPE(n)
	}
	if q < 0 {
		return
	}
	cycles := e + 1
	list := p.arrive[q]
	if len(list) == 0 {
		p.nArrivePEs++
	}
	if len(list) > 0 && list[len(list)-1].cycles == cycles {
		p.dedups++
		return
	}
	p.tuples++
	p.arrive[q] = append(list, refArrival{cycles: cycles, endState: state})
}

// extractPath rebuilds the resource chain behind an arrival, ordered by
// phase from the producer.
func (p *refPropagation) extractPath(ar refArrival, lat int) []mrrg.Node {
	if lat <= 1 {
		return []mrrg.Node{}
	}
	path := make([]mrrg.Node, lat-1)
	state := ar.endState
	for e := lat - 1; e >= 1; e-- {
		if p.forward {
			path[e-1] = p.stateNode(state)
		} else {
			path[lat-1-e] = p.stateNode(state)
		}
		state = p.par[state]
	}
	return path
}
