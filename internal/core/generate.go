package core

import (
	"slices"

	"rewire/internal/route"
	"rewire/internal/trace"
)

// generate implements Algorithm 2: build Placement(U) by assigning
// candidates to cluster nodes in topological order, pruning with
// execution-cycle data-dependency constraints against already-chosen
// nodes, and verifying through routing. Verification is incremental: as
// soon as a node is tentatively placed, every edge to an already-placed
// endpoint — mapped anchors and earlier cluster nodes — is routed,
// reusing the propagation probe paths where possible, and a node whose
// edges cannot route is rejected on the spot instead of poisoning a
// full Placement(U). Before routing, a one-step look-ahead (forward
// checking) rejects a trial that leaves the next cluster node without
// an admissible candidate (see assign). The first complete verified
// placement is committed.
func (a *amender) generate(u *cluster, cands map[int][]pcand, props map[int]*propagation, budget *int) bool {
	gs := a.tr.StartSpan(a.cur, "placement_enum").WithInt("budget", int64(*budget))
	for _, v := range u.nodes {
		if len(cands[v]) == 0 {
			gs.WithBool("ok", false).End()
			return false // some node has no candidate at all
		}
	}
	scr := a.scratch()
	chosen := scr.chosenBuf
	if cap(chosen) < len(u.nodes) {
		chosen = make([]pcand, len(u.nodes))
	}
	chosen = chosen[:len(u.nodes)]
	scr.chosenBuf = chosen
	gen := &scr.gen
	*gen = generator{
		a:      a,
		u:      u,
		cands:  cands,
		props:  props,
		chosen: chosen,
		budget: budget,
		span:   gs,
		scr:    scr,
	}
	gen.buildConstraints()
	ok := gen.assign(0)
	gs.WithBool("ok", ok).End()
	return ok
}

type generator struct {
	a      *amender
	u      *cluster
	cands  map[int][]pcand
	props  map[int]*propagation
	chosen []pcand
	cons   [][]cycleCons // cons[i]: node i's constraints against nodes 0..i-1
	budget *int
	span   *trace.Span   // the placement_enum span; parent of verify spans
	scr    *amendScratch // owns the per-depth routed-edge buffers
}

// assign recursively picks a candidate for the i-th cluster node (the
// index-vector iteration of Algorithm 2, realised as backtracking with
// incremental routing verification). The amortised pacer check is also
// where a cancelled speculative II attempt bails out of the enumeration.
//
// A placed trial is charged to the budget, then forward-checked: if the
// next cluster node has no candidate left that is admissible against
// chosen[0..i] and placeable, the trial is unplaced without routing.
// This is exact. Routing only adds occupancy and CanPlace is monotone in
// it, so without the check the trial would route, find no candidate in
// assign(i+1) without charging anything there, and backtrack: the
// budget sequence, and so every mapping, is the same either way.
func (g *generator) assign(i int) bool {
	if *g.budget <= 0 || g.a.pace.Expired() {
		return false
	}
	if i == len(g.u.nodes) {
		return true
	}
	v := g.u.nodes[i]
	for _, c := range g.cands[v] {
		g.a.eff.PlacementsTried++
		// CanPlace rejects an occupied FU or bank-port cycle without the
		// error PlaceNode would format; for the unplaced cluster node it
		// admits exactly the trials PlaceNode accepts.
		if !g.admissible(g.cons[i], c) || !g.a.sess.CanPlace(v, c.pe, c.T) || g.a.sess.PlaceNode(v, c.pe, c.T) != nil {
			g.a.eff.PlacementsPruned++
			continue
		}
		// Only placed trials count against the budget; the cheap
		// execution-cycle rejections above are nearly free.
		*g.budget--
		g.chosen[i] = c
		if !g.nextPlaceable(i + 1) {
			g.a.eff.ForwardRejected++
		} else {
			g.a.eff.VerifyAttempts++
			vs := g.a.tr.StartSpan(g.span, "verify").
				WithInt("node", int64(v)).WithInt("pe", int64(c.pe)).WithInt("t", int64(c.T))
			routed, ok := g.routeNode(i, v)
			vs.WithBool("ok", ok).End()
			if ok {
				g.a.eff.VerifySuccesses++
				if g.assign(i + 1) {
					return true
				}
			}
			for _, eid := range routed {
				g.a.sess.UnrouteEdge(eid)
			}
		}
		g.a.sess.UnplaceNode(v)
		if *g.budget <= 0 {
			return false
		}
	}
	return false
}

// nextPlaceable is the forward check: whether the j-th cluster node (if
// any) has a candidate admissible against the chosen nodes before it
// that CanPlace accepts at the current occupancy.
func (g *generator) nextPlaceable(j int) bool {
	if j == len(g.u.nodes) {
		return true
	}
	v := g.u.nodes[j]
	for _, c := range g.cands[v] {
		if g.admissible(g.cons[j], c) && g.a.sess.CanPlace(v, c.pe, c.T) {
			return true
		}
	}
	return false
}

// cycleCons is one execution-cycle constraint between the cluster node
// being assigned and an earlier chosen cluster node j: an in-cluster
// edge of inter-iteration distance dist, with j as the producer (in) or
// as the consumer.
type cycleCons struct {
	j, dist int
	in      bool
}

// buildConstraints fills g.cons with every cluster node's constraints
// against the nodes before it in the cluster order: one per edge whose
// other endpoint comes earlier, in-edges first (a node is not among the
// nodes before it, so self recurrences drop out). They depend on the
// cluster only, so generate builds them once for all depths; the forward
// check at depth i reads depth i+1's list. Each depth's list lives in
// its own scratch buffer.
func (g *generator) buildConstraints() {
	for len(g.scr.consBufs) < len(g.u.nodes) {
		g.scr.consBufs = append(g.scr.consBufs, nil)
	}
	for i, v := range g.u.nodes {
		cons := g.scr.consBufs[i][:0]
		if !g.a.opt.DisableCyclePruning {
			for _, eid := range g.a.g.InEdges(v) {
				e := g.a.g.Edges[eid]
				if j := g.indexOf(e.From, i); j >= 0 {
					cons = append(cons, cycleCons{j: j, dist: e.Dist, in: true})
				}
			}
			for _, eid := range g.a.g.OutEdges(v) {
				e := g.a.g.Edges[eid]
				if j := g.indexOf(e.To, i); j >= 0 {
					cons = append(cons, cycleCons{j: j, dist: e.Dist})
				}
			}
		}
		g.scr.consBufs[i] = cons
	}
	g.cons = g.scr.consBufs[:len(g.u.nodes)]
}

// admissible applies the cheap execution-cycle pruning of Algorithm 2
// (lines 6-8) before any resources are touched: latency feasibility
// against every already-chosen cluster node that v depends on. The
// constraints come from buildConstraints, one list per cluster node
// (empty under DisableCyclePruning, the ablation that lets placement and
// routing reject instead). FU-slot exclusivity needs no test here: the
// chosen nodes are placed in the session, so CanPlace rejects a
// candidate on one's FU slot right after, counted as pruned the same
// way.
func (g *generator) admissible(cons []cycleCons, c pcand) bool {
	for _, k := range cons {
		if k.in {
			if !g.latOK(g.chosen[k.j], c, k.dist) {
				return false
			}
		} else if !g.latOK(c, g.chosen[k.j], k.dist) {
			return false
		}
	}
	return true
}

// latOK checks the producer->consumer cycle constraint for an in-cluster
// edge: latency at least 1, at least the oracle's exact minimum routing
// latency (exact on torus wrap links, where a Manhattan bound would
// reject routable candidates), and within the router's bound.
func (g *generator) latOK(from, to pcand, dist int) bool {
	lat := to.T - from.T + dist*g.a.sess.M.II
	if lat < 1 || lat > g.a.router.MaxLat() {
		return false
	}
	return lat >= g.a.router.NeedCycles(from.pe, to.pe)
}

// indexOf returns v's position among the first limit cluster nodes, or
// -1 if v is not one of them.
func (g *generator) indexOf(v, limit int) int {
	for j := 0; j < limit; j++ {
		if g.u.nodes[j] == v {
			return j
		}
	}
	return -1
}

// routeNode routes every edge of v whose other endpoint is placed,
// returning the edges committed and whether all succeeded. The returned
// slice is the depth-i scratch buffer — one buffer per recursion depth,
// because depth i's routed list must survive while assign(i+1) runs.
func (g *generator) routeNode(i, v int) ([]int, bool) {
	a := g.a
	for len(g.scr.routedBufs) <= i {
		g.scr.routedBufs = append(g.scr.routedBufs, nil)
	}
	done := g.scr.routedBufs[i][:0]
	defer func() { g.scr.routedBufs[i] = done }()
	tryEdge := func(eid int) bool {
		e := a.g.Edges[eid]
		if !a.sess.M.Placed(e.From) || !a.sess.M.Placed(e.To) || a.sess.M.Routed(eid) {
			return true
		}
		if !g.routeOne(eid) {
			return false
		}
		done = append(done, eid)
		return true
	}
	// In-edges first, then out-edges, skipping the one overlap (a self
	// edge appears in both lists) — the same order the old concatenate-
	// and-dedup walk produced.
	for _, eid := range a.g.InEdges(v) {
		if !tryEdge(eid) {
			return done, false
		}
	}
	for _, eid := range a.g.OutEdges(v) {
		if e := a.g.Edges[eid]; e.From == v && e.To == v {
			continue
		}
		if !tryEdge(eid) {
			return done, false
		}
	}
	return done, true
}

// routeOne routes a single edge, trying the propagation-recorded path
// first (the reuse of wire information), then the router.
func (g *generator) routeOne(eid int) bool {
	a := g.a
	e := a.g.Edges[eid]
	lat := a.sess.M.Latency(eid)
	if lat < 1 {
		return false
	}
	// Fast path: a probe from the producer anchor already walked a route
	// to the consumer's PE with exactly this cycle count.
	if p := propOf(g.props, e.From, true); p != nil && !g.u.contains(e.From) && !a.opt.DisableTuplePaths {
		if g.routeProbe(eid, p, a.sess.M.Place[e.To].PE, lat) {
			return true
		}
	}
	// Symmetric fast path for backward probes from a consumer anchor.
	if p := propOf(g.props, e.To, false); p != nil && !g.u.contains(e.To) && !a.opt.DisableTuplePaths {
		if g.routeProbe(eid, p, a.sess.M.Place[e.From].PE, lat) {
			return true
		}
	}
	src := a.sess.Graph.FU(a.sess.M.Place[e.From].PE, a.sess.M.Place[e.From].Time)
	dst := a.sess.Graph.FU(a.sess.M.Place[e.To].PE, a.sess.M.Place[e.To].Time)
	path, found := a.router.FindPath(src, dst, lat, nil, route.StrictFloor(a.sess, e.From))
	if !found {
		return false
	}
	return a.sess.RouteEdge(eid, path) == nil
}

// routeProbe routes edge eid along p's probe path to PE q, if p has a
// tuple there with exactly lat cycles and the session would accept the
// path. The path is extracted into scratch and tested with CanRoute,
// which accepts exactly what RouteEdge accepts without reserving or
// formatting anything, so a rejected probe path costs no allocation,
// error string or rollback. Only an accepted path is copied into the
// fresh slice the session keeps, and RouteEdge still checks it.
func (g *generator) routeProbe(eid int, p *propagation, q, lat int) bool {
	if !p.hasCycle(q, lat) {
		return false
	}
	path := p.extractPath(g.scr.probePath, q, lat)
	g.scr.probePath = path
	if !g.a.sess.CanRoute(eid, path) {
		return false
	}
	return g.a.sess.RouteEdge(eid, slices.Clone(path)) == nil
}
