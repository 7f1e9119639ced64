package route

// The router's contribution to the mapping post-mortem layer (see
// internal/diag and docs/OBSERVABILITY.md): when an edge cannot route
// strictly, a relaxed re-search names the occupied resources standing
// in its way. Everything here is diagnostic-only — it runs on a failed
// attempt with diagnostics enabled, never on the mapping hot path, so
// it costs nothing when diagnostics are off.

import (
	"rewire/internal/diag"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

// blockerPenalty prices an occupied resource in the relaxed search:
// high enough that the cheapest relaxed path steals as few occupied
// resources as possible, low enough that long detours through free
// fabric still lose to a short contested corridor (which is the honest
// answer to "what is this edge fighting over").
const blockerPenalty = 64

// Blockers diagnoses why edge e cannot route strictly: it re-runs the
// search with occupied resources admitted at a high penalty and returns
// the occupied nodes on the cheapest relaxed path — the resources the
// edge's net would have to steal. An empty result with ok=true means
// the edge routes fine (no contention); ok=false means even the relaxed
// search failed, i.e. the edge is latency- or topology-infeasible at
// this placement, not congestion-blocked.
func Blockers(s *mapping.Session, r *Router, e int) (blocked []mrrg.Node, ok bool) {
	ed := s.M.DFG.Edges[e]
	if !s.M.Placed(ed.From) || !s.M.Placed(ed.To) {
		return nil, false
	}
	lat := s.M.Latency(e)
	if lat < 1 {
		return nil, false
	}
	net := mrrg.Net(ed.From)
	st := s.State
	relaxed := func(n mrrg.Node, phase int) (float64, bool) {
		if st.Usable(n, net, phase) {
			if occ, _ := st.Occupant(n); occ == net {
				return StrictSharedCost, true
			}
			return 1, true
		}
		// Occupied by a foreign net (or the wrong phase of our own):
		// admitted, at a price. Usable already rejected invalid nodes
		// only together with occupancy, so re-check validity.
		if occ, _ := st.Occupant(n); occ == mrrg.NoNet {
			return 0, false // invalid node, not contention
		}
		return blockerPenalty, true
	}
	src := s.Graph.FU(s.M.Place[ed.From].PE, s.M.Place[ed.From].Time)
	dst := s.Graph.FU(s.M.Place[ed.To].PE, s.M.Place[ed.To].Time)
	path, found := r.FindPath(src, dst, lat, relaxed, Flat(StrictSharedCost))
	if !found {
		return nil, false
	}
	for _, n := range path {
		if occ, _ := st.Occupant(n); occ != mrrg.NoNet && occ != net {
			blocked = append(blocked, n)
		}
	}
	return blocked, true
}

// maxAttributedEdges bounds the relaxed re-searches one failed attempt
// pays for: attribution is a post-mortem, not a search phase.
const maxAttributedEdges = 16

// AttributeFailures feeds a failed attempt's unroutable edges and the
// occupants blocking them into its diagnostics: for each unrouted edge
// between placed endpoints (capped), the relaxed search's blockers are
// charged as contention with the blocking occupant named as the
// contender. Call it on a failed attempt before att.End; it is a
// no-op unless the attempt feeds a post-mortem collector.
func AttributeFailures(att *diag.IIAttempt, s *mapping.Session, r *Router) {
	if !att.Diagnosing() {
		return
	}
	edges := 0
	for e := range s.M.Routes {
		if s.M.Routed(e) {
			continue
		}
		ed := s.M.DFG.Edges[e]
		if !s.M.Placed(ed.From) || !s.M.Placed(ed.To) {
			continue
		}
		if edges >= maxAttributedEdges {
			return
		}
		edges++
		blocked, ok := Blockers(s, r, e)
		if !ok {
			continue
		}
		for _, n := range blocked {
			occ, _ := s.State.Occupant(n)
			att.Contend(n, occ)
			// The failing edge's own net fought for it too.
			att.Contend(n, mrrg.Net(ed.From))
		}
	}
}
