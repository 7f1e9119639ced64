package mrrg

import "fmt"

// Net identifies the value travelling through routing resources: the DFG
// node ID of the producer.
type Net int32

// NoNet marks a free resource.
const NoNet Net = -1

// State is the mutable occupancy of an MRRG. Each resource is held by at
// most one (net, phase) pair:
//
//   - net is the producing DFG node, so a value fanning out to several
//     consumers can share resources (a route tree);
//   - phase is the number of cycles since the value was produced. In a
//     modulo schedule the same resource slot recurs every II cycles, and
//     each iteration of the loop produces a fresh value of the net: two
//     routes of one net may share a resource only when they cross it at
//     the same phase, otherwise two different iterations' values would
//     occupy one wire or register simultaneously.
//
// A per-resource reference count lets overlapping route segments of one
// net reserve and release independently.
//
// The State also keeps its free routing resources as slot bitsets, one
// row of G.SlotWords() words per modulo time step (FreeRows): Reserve
// and Release flip a resource's bit when it changes between free and
// held, so readers get the free set without scanning the occupancy.
type State struct {
	G     *Graph
	occ   []Net
	phase []int32
	ref   []int32
	free  []uint64

	// mark is an epoch-stamped per-node scratch set that rides the pooled
	// State so hot loops (route-path validity checks, flood dedup) can
	// test-and-set node membership without allocating a map per call. A
	// node is in the current set iff mark[n] == markEpoch; MarkBegin
	// starts a fresh empty set in O(1). Never observable in mapping
	// results.
	mark      []int32
	markEpoch int32
}

// blankState returns a State with right-sized (but uninitialised)
// buffers for g, reusing a recycled one when the pool has it.
func (g *Graph) blankState() *State {
	if v := g.statePool.Get(); v != nil {
		return v.(*State)
	}
	back := make([]int32, 3*g.numNodes)
	return &State{
		G:     g,
		occ:   make([]Net, g.numNodes),
		phase: back[:g.numNodes:g.numNodes],
		ref:   back[g.numNodes : 2*g.numNodes : 2*g.numNodes],
		mark:  back[2*g.numNodes:],
		free:  make([]uint64, g.II*g.SlotWords()),
	}
}

// NewState returns an all-free occupancy for g, drawing the buffers from
// the graph's recycle pool when possible.
func NewState(g *Graph) *State {
	s := g.blankState()
	for i := range s.occ {
		s.occ[i] = NoNet
	}
	for i := range s.phase {
		s.phase[i] = 0
	}
	for i := range s.ref {
		s.ref[i] = 0
	}
	// Every valid routing resource is free. Validity and kind are the
	// same at every time step, so row 0 is built from the slots and
	// copied to the other rows.
	w := g.SlotWords()
	row := s.free[:w]
	clear(row)
	for b := 0; b < g.numSlots; b++ {
		if n := g.node(b, 0); g.valid[n] && g.kind[n] != KindBank {
			row[b>>6] |= 1 << (b & 63)
		}
	}
	for t := 1; t < g.II; t++ {
		copy(s.free[t*w:(t+1)*w], row)
	}
	return s
}

// Recycle returns s's buffers to its graph's pool for reuse by a later
// NewState. The caller must not touch s afterwards; sessions
// call this through mapping.Session.Close when they are done.
func (s *State) Recycle() {
	if s == nil || s.G == nil {
		return
	}
	s.G.statePool.Put(s)
}

// MarkBegin empties the State's node-mark scratch set in O(1) by
// advancing the epoch. The set survives until the next MarkBegin (or
// epoch wrap, after which it is explicitly cleared).
func (s *State) MarkBegin() {
	s.markEpoch++
	if s.markEpoch == 0 { // wrapped: stale stamps could alias, clear them
		clear(s.mark)
		s.markEpoch = 1
	}
}

// Mark adds n to the current mark set.
func (s *State) Mark(n Node) { s.mark[n] = s.markEpoch }

// Marked reports whether n is in the current mark set.
func (s *State) Marked(n Node) bool { return s.mark[n] == s.markEpoch }

// Occupant returns the net holding n (NoNet if free) and its phase.
func (s *State) Occupant(n Node) (Net, int) { return s.occ[n], int(s.phase[n]) }

// Free reports whether n is valid and unoccupied.
func (s *State) Free(n Node) bool { return s.G.valid[n] && s.occ[n] == NoNet }

// Usable reports whether (net, phase) may use n: n is valid and either
// free or already held by the same net at the same phase.
func (s *State) Usable(n Node, net Net, phase int) bool {
	ok, _ := s.Admit(n, net, phase)
	return ok
}

// Admit is Usable and the own-net test in one occupancy read: ok reports
// whether (net, phase) may use n (n is valid and either free or already
// held by net at that phase), and shared whether n is already held by
// net at that phase (so using it adds no new reservation). Routing cost
// functions call it once per priced resource.
func (s *State) Admit(n Node, net Net, phase int) (ok, shared bool) {
	occ := s.occ[n]
	if occ == NoNet {
		return s.G.valid[n], false
	}
	shared = occ == net && int(s.phase[n]) == phase
	return shared, shared
}

// FreeRows returns the free routing resources, one slot bitset
// (G.SlotWords() words) per modulo time step, row t at
// [t*G.SlotWords():]: slot b is set in row t iff its node at time t is
// valid, unoccupied and not a bank port. The rows are the State's own
// and change with every Reserve and Release; callers must not modify
// them.
func (s *State) FreeRows() []uint64 { return s.free }

// FreeRoutingSlots snapshots FreeRows into free, which must hold II
// rows.
func (s *State) FreeRoutingSlots(free []uint64) { copy(free, s.free) }

// flipFree toggles n's bit in the free rows.
func (s *State) flipFree(n Node) {
	b := int(s.G.slot[n])
	t := int(n) - b*s.G.II
	s.free[t*s.G.SlotWords()+b>>6] ^= 1 << (b & 63)
}

// Reserve claims n for (net, phase). It returns an error if n is invalid
// or held by a different net or phase.
func (s *State) Reserve(n Node, net Net, phase int) error {
	if !s.G.valid[n] {
		return fmt.Errorf("mrrg: reserve of invalid resource %s", s.G.String(n))
	}
	if s.occ[n] != NoNet && (s.occ[n] != net || int(s.phase[n]) != phase) {
		return fmt.Errorf("mrrg: %s held by net %d phase %d (want net %d phase %d)",
			s.G.String(n), s.occ[n], s.phase[n], net, phase)
	}
	if s.occ[n] == NoNet && s.G.kind[n] != KindBank {
		s.flipFree(n)
	}
	s.occ[n] = net
	s.phase[n] = int32(phase)
	s.ref[n]++
	return nil
}

// Release drops one reference of net on n, freeing the resource when the
// last reference goes. Releasing a resource the net does not hold is a
// bookkeeping bug and panics.
func (s *State) Release(n Node, net Net) {
	if s.occ[n] != net || s.ref[n] <= 0 {
		panic(fmt.Sprintf("mrrg: release of %s by net %d, but occupant=%d refs=%d",
			s.G.String(n), net, s.occ[n], s.ref[n]))
	}
	s.ref[n]--
	if s.ref[n] == 0 {
		s.occ[n] = NoNet
		s.phase[n] = 0
		if s.G.kind[n] != KindBank {
			s.flipFree(n)
		}
	}
}

// ReservePath claims path[i] for (net, startPhase+i), rolling back on the
// first failure. For an edge route, startPhase is 1 (the producer FU is
// phase 0).
func (s *State) ReservePath(path []Node, net Net, startPhase int) error {
	for i, n := range path {
		if err := s.Reserve(n, net, startPhase+i); err != nil {
			for j := 0; j < i; j++ {
				s.Release(path[j], net)
			}
			return err
		}
	}
	return nil
}

// ReleasePath drops one reference of net on every node of path.
func (s *State) ReleasePath(path []Node, net Net) {
	for _, n := range path {
		s.Release(n, net)
	}
}

// FreeBankPort returns a free bank-port node at modulo time t, or Invalid
// if all ports are taken that cycle.
func (s *State) FreeBankPort(t int) Node {
	for p := 0; p < s.G.Arch.BankPorts(); p++ {
		if n := s.G.Bank(p, t); s.occ[n] == NoNet {
			return n
		}
	}
	return Invalid
}
