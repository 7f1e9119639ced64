// Package mapping defines the result of CGRA mapping — operation
// placements with absolute schedule times, edge routes through the MRRG,
// and memory-bank port assignments — plus a mutable Session used by the
// mappers and an independent validator used by tests and by mappers to
// certify results.
package mapping

import (
	"fmt"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mrrg"
)

// Placement is where and when a DFG node executes. Time is the absolute
// schedule cycle (not reduced modulo II): dependencies constrain absolute
// times, while resource occupancy is modulo II.
type Placement struct {
	PE   int
	Time int
}

// Unplaced marks a node without a placement.
var Unplaced = Placement{PE: -1, Time: 0}

// Mapping is the mapping of one DFG onto one CGRA at one II.
type Mapping struct {
	DFG  *dfg.Graph
	Arch *arch.CGRA
	II   int

	// Place is indexed by node ID; Place[v].PE < 0 means unplaced.
	Place []Placement
	// Routes is indexed by edge ID: the chain of routing resources
	// between producer FU and consumer FU (length = latency-1, so a
	// same-PE latency-1 edge has an empty but non-nil route). nil means
	// unrouted.
	Routes [][]mrrg.Node
	// BankPorts is indexed by node ID: the bank-port resource reserved by
	// a placed memory operation, mrrg.Invalid otherwise.
	BankPorts []mrrg.Node
}

// New returns an empty mapping for d on a at the given II.
func New(d *dfg.Graph, a *arch.CGRA, ii int) *Mapping {
	m := &Mapping{
		DFG:       d,
		Arch:      a,
		II:        ii,
		Place:     make([]Placement, d.NumNodes()),
		Routes:    make([][]mrrg.Node, d.NumEdges()),
		BankPorts: make([]mrrg.Node, d.NumNodes()),
	}
	for i := range m.Place {
		m.Place[i] = Unplaced
		m.BankPorts[i] = mrrg.Invalid
	}
	return m
}

// Placed reports whether node v has a placement.
func (m *Mapping) Placed(v int) bool { return m.Place[v].PE >= 0 }

// Routed reports whether edge e has a route.
func (m *Mapping) Routed(e int) bool { return m.Routes[e] != nil }

// Latency returns the cycles the value of edge e spends in flight:
// consumerTime - producerTime + distance*II. Both endpoints must be
// placed. A valid mapping has Latency >= 1 for every edge.
func (m *Mapping) Latency(e int) int {
	ed := m.DFG.Edges[e]
	return m.Place[ed.To].Time - m.Place[ed.From].Time + ed.Dist*m.II
}

// Clone deep-copies the mapping (sharing the DFG and architecture).
func (m *Mapping) Clone() *Mapping {
	c := &Mapping{DFG: m.DFG, Arch: m.Arch, II: m.II}
	c.Place = append([]Placement(nil), m.Place...)
	c.BankPorts = append([]mrrg.Node(nil), m.BankPorts...)
	c.Routes = make([][]mrrg.Node, len(m.Routes))
	for i, r := range m.Routes {
		if r != nil {
			c.Routes[i] = append([]mrrg.Node{}, r...)
		}
	}
	return c
}

// UnplacedNodes returns the IDs of nodes without placements.
func (m *Mapping) UnplacedNodes() []int {
	var out []int
	for v := range m.Place {
		if !m.Placed(v) {
			out = append(out, v)
		}
	}
	return out
}

// Summary is a one-line description for logs.
func (m *Mapping) Summary() string {
	placed, routed := 0, 0
	for v := range m.Place {
		if m.Placed(v) {
			placed++
		}
	}
	for e := range m.Routes {
		if m.Routed(e) {
			routed++
		}
	}
	return fmt.Sprintf("%s on %s II=%d: %d/%d placed, %d/%d routed",
		m.DFG.Name, m.Arch.Name, m.II, placed, len(m.Place), routed, len(m.Routes))
}
