// Package placer provides the candidate-enumeration and scheduling-window
// helpers shared by all three mappers: which (PE, time) slots a DFG node
// may occupy given the placements of its already-mapped neighbours.
package placer

import (
	"math"

	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

// Window is the inclusive absolute-time range a node may execute in.
type Window struct {
	Lo, Hi int
}

// Empty reports whether no time satisfies the window.
func (w Window) Empty() bool { return w.Lo > w.Hi }

// TimeWindow computes the schedule window for node v implied by its
// placed neighbours: every placed parent p with edge distance d forces
// T_v >= T_p + 1 - d*II, every placed child c forces T_v <= T_c - 1 + d*II.
// Unconstrained sides fall back to [base, base+slack]; the result is
// clamped to at most slack cycles wide starting from the lower bound.
func TimeWindow(s *mapping.Session, v, base, slack int) Window {
	g := s.M.DFG
	ii := s.M.II
	lo := math.MinInt32
	hi := math.MaxInt32
	for _, eid := range g.InEdges(v) {
		e := g.Edges[eid]
		if e.From == v {
			continue // self recurrence constrains nothing here
		}
		if s.M.Placed(e.From) {
			if b := s.M.Place[e.From].Time + dfg.OpLatency - e.Dist*ii; b > lo {
				lo = b
			}
		}
	}
	for _, eid := range g.OutEdges(v) {
		e := g.Edges[eid]
		if e.To == v {
			continue
		}
		if s.M.Placed(e.To) {
			if b := s.M.Place[e.To].Time - dfg.OpLatency + e.Dist*ii; b < hi {
				hi = b
			}
		}
	}
	if lo == math.MinInt32 {
		lo = base
	}
	if hi == math.MaxInt32 {
		hi = lo + slack
	}
	if hi > lo+slack {
		hi = lo + slack
	}
	return Window{Lo: lo, Hi: hi}
}

// Candidates appends to out every (PE, T) slot in the window where v
// could be placed under the current occupancy — exactly the slots for
// which Session.CanPlace holds (free compatible FU, bank port for memory
// ops) — and returns the extended slice. The order is deterministic:
// time-major, then PE index.
//
// The op class and the supporting PEs are resolved once per call, and
// each time's modulo step and bank-port check once per T, not once per
// slot. Callers on a hot path keep one out buffer and pass it back as
// out[:0]; with a warm buffer the call does not allocate.
func Candidates(s *mapping.Session, v int, w Window, out []mapping.Placement) []mapping.Placement {
	a := s.M.Arch
	op := s.M.DFG.Nodes[v].Op
	cl := mapping.ClassOf(op)
	// Fabrics up to 16x16 keep the PE list on the stack.
	var peBuf [256]int32
	pes := peBuf[:0]
	for pe := 0; pe < a.NumPEs(); pe++ {
		if a.Supports(pe, cl) {
			pes = append(pes, int32(pe))
		}
	}
	ii := s.M.II
	for T := w.Lo; T <= w.Hi; T++ {
		t := T % ii
		if t < 0 {
			t += ii
		}
		if op.IsMem() && s.State.FreeBankPort(t) == mrrg.Invalid {
			continue
		}
		for _, pe := range pes {
			if s.State.Free(s.Graph.FU(int(pe), t)) {
				out = append(out, mapping.Placement{PE: int(pe), Time: T})
			}
		}
	}
	return out
}

// DefaultSlack is the scheduling window width the mappers explore per
// node: one full II of modulo slots plus room for routing detours.
func DefaultSlack(ii int) int { return ii + 3 }
