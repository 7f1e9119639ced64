package core

import (
	"rewire/internal/route"
	"rewire/internal/trace"
)

// generate implements Algorithm 2: build Placement(U) by assigning
// candidates to cluster nodes in topological order, pruning with
// execution-cycle data-dependency constraints against already-chosen
// nodes, and verifying through routing. Verification is incremental
// (forward checking): as soon as a node is tentatively placed, every
// edge to an already-placed endpoint — mapped anchors and earlier
// cluster nodes — is routed, reusing the propagation probe paths where
// possible; a node whose edges cannot route is rejected on the spot
// instead of poisoning a full Placement(U). The first complete verified
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
	budget *int
	span   *trace.Span   // the placement_enum span; parent of verify spans
	scr    *amendScratch // owns the per-depth routed-edge buffers
}

// assign recursively picks a candidate for the i-th cluster node (the
// index-vector iteration of Algorithm 2, realised as backtracking with
// incremental routing verification). The amortised pacer check is also
// where a cancelled speculative II attempt bails out of the enumeration.
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
		if !g.admissible(i, v, c) || !g.a.sess.CanPlace(v, c.pe, c.T) || g.a.sess.PlaceNode(v, c.pe, c.T) != nil {
			g.a.eff.PlacementsPruned++
			continue
		}
		// Only routed placement trials count against the budget; the
		// cheap execution-cycle rejections above are nearly free.
		*g.budget--
		g.a.eff.VerifyAttempts++
		vs := g.a.tr.StartSpan(g.span, "verify").
			WithInt("node", int64(v)).WithInt("pe", int64(c.pe)).WithInt("t", int64(c.T))
		routed, ok := g.routeNode(i, v)
		vs.WithBool("ok", ok).End()
		if ok {
			g.a.eff.VerifySuccesses++
			g.chosen[i] = c
			if g.assign(i + 1) {
				return true
			}
		}
		for _, eid := range routed {
			g.a.sess.UnrouteEdge(eid)
		}
		g.a.sess.UnplaceNode(v)
		if *g.budget <= 0 {
			return false
		}
	}
	return false
}

// admissible applies the cheap execution-cycle pruning of Algorithm 2
// (lines 6-8) before any resources are touched: latency feasibility
// against every already-chosen cluster node that v depends on. FU-slot
// exclusivity needs no test here: the chosen nodes are placed in the
// session, so CanPlace rejects a candidate on one's FU slot right after,
// counted as pruned the same way.
func (g *generator) admissible(i, v int, c pcand) bool {
	if g.a.opt.DisableCyclePruning {
		return true // ablation: let placement and routing reject instead
	}
	for _, eid := range g.a.g.InEdges(v) {
		e := g.a.g.Edges[eid]
		if e.From == v || !g.u.contains(e.From) {
			continue
		}
		if j, ok := g.indexOf(e.From, i); ok {
			if !g.latOK(g.chosen[j], c, e.Dist) {
				return false
			}
		}
	}
	for _, eid := range g.a.g.OutEdges(v) {
		e := g.a.g.Edges[eid]
		if e.To == v || !g.u.contains(e.To) {
			continue
		}
		if j, ok := g.indexOf(e.To, i); ok {
			if !g.latOK(c, g.chosen[j], e.Dist) {
				return false
			}
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

func (g *generator) indexOf(v, limit int) (int, bool) {
	for j := 0; j < limit; j++ {
		if g.u.nodes[j] == v {
			return j, true
		}
	}
	return 0, false
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
		toPE := a.sess.M.Place[e.To].PE
		if p.hasCycle(toPE, lat) {
			path := p.extractPath(toPE, lat)
			if a.sess.RouteEdge(eid, path) == nil {
				return true
			}
		}
	}
	// Symmetric fast path for backward probes from a consumer anchor.
	if p := propOf(g.props, e.To, false); p != nil && !g.u.contains(e.To) && !a.opt.DisableTuplePaths {
		fromPE := a.sess.M.Place[e.From].PE
		if p.hasCycle(fromPE, lat) {
			path := p.extractPath(fromPE, lat)
			if a.sess.RouteEdge(eid, path) == nil {
				return true
			}
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
