package route

import (
	"fmt"

	"rewire/internal/mapping"
)

// ForSession builds a router sized for a mapping session's architecture
// and II.
func ForSession(s *mapping.Session) *Router {
	a := s.M.Arch
	return NewRouter(s.Graph, DefaultMaxLat(a.Rows, a.Cols, s.M.II))
}

// StrictFloor returns the Floor for routing an edge of producer's net
// with strict pricing (a nil CostFn, or StrictCost(s.State, producer))
// or PathFinder's negotiated cost. The own-net sharing discount is only
// reachable once some edge of the net is routed (the producer's own FU
// and bank-port reservations sit at phase 0, which a mid-path state can
// never match), so a net with no routed edges pays full unit cost on
// every step: Min 1. Otherwise the floor is StrictSharedCost, and it
// carries the net's committed routes, which hold exactly what the net
// holds past phase 0, so that FindPath can price the phases they cannot
// share at full cost, and price a nil CostFn as StrictCost does. Either
// way it names the session's State, whose Admit both costs admit by. It
// references the session's routes and the DFG's out-edge list instead
// of copying them.
func StrictFloor(s *mapping.Session, producer int) Floor {
	out := s.M.DFG.OutEdges(producer)
	for _, eid := range out {
		if s.M.Routed(eid) {
			return Floor{Min: StrictSharedCost, Routes: s.M.Routes, Edges: out, State: s.State}
		}
	}
	return Floor{Min: 1, State: s.State}
}

// Edge routes edge e of the session strictly (free or own-net resources
// only), pricing from StrictFloor's rows, and commits the route. Both
// endpoints must be placed.
func Edge(s *mapping.Session, r *Router, e int) error {
	ed := s.M.DFG.Edges[e]
	if !s.M.Placed(ed.From) || !s.M.Placed(ed.To) {
		return fmt.Errorf("route: edge %d endpoint unplaced", e)
	}
	lat := s.M.Latency(e)
	if lat < 1 {
		return fmt.Errorf("route: edge %d latency %d < 1", e, lat)
	}
	src := s.Graph.FU(s.M.Place[ed.From].PE, s.M.Place[ed.From].Time)
	dst := s.Graph.FU(s.M.Place[ed.To].PE, s.M.Place[ed.To].Time)
	path, ok := r.FindPath(src, dst, lat, nil, StrictFloor(s, ed.From))
	if !ok {
		return fmt.Errorf("route: no conflict-free path for edge %d (lat %d, %s -> %s)",
			e, lat, s.Graph.String(src), s.Graph.String(dst))
	}
	return s.RouteEdge(e, path)
}
