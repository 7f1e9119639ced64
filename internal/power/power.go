// Package power estimates the dynamic energy and activity of a mapped
// kernel from its generated configuration: operation counts by class,
// link toggles, register-file writes and memory accesses per steady-state
// iteration, weighted by a per-event energy model. Numbers are
// normalised units (an ALU op = 1.0), in line with how CGRA papers
// compare mapping-induced routing overhead rather than absolute joules.
package power

import (
	"fmt"
	"sort"
	"strings"

	"rewire/internal/config"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
)

// Model is the per-event energy table, in units of one ALU operation.
type Model struct {
	ALUOp    float64
	MulOp    float64
	DivOp    float64
	MemOp    float64
	MoveOp   float64 // ALU used as a route hop
	LinkHop  float64
	RegWrite float64
	// ConfigFetch is charged once per active PE per cycle (context fetch
	// from the configuration memory).
	ConfigFetch float64
}

// DefaultModel reflects typical relative energies reported for CGRA
// fabrics: multiplies ~3x an add, memory ~4x, a mesh hop ~0.6x, a
// register write ~0.3x.
func DefaultModel() Model {
	return Model{
		ALUOp:       1.0,
		MulOp:       3.0,
		DivOp:       6.0,
		MemOp:       4.0,
		MoveOp:      0.5,
		LinkHop:     0.6,
		RegWrite:    0.3,
		ConfigFetch: 0.2,
	}
}

// Report is the activity/energy summary of one configuration.
type Report struct {
	II int
	// Counts of events per steady-state iteration.
	Ops       map[string]int // per op-kind mnemonic
	Moves     int
	LinkHops  int
	RegWrites int
	ActivePEs int // PE-cycles with any activity
	// Energy per iteration, total and by component.
	Energy    float64
	Breakdown map[string]float64
}

// Estimate computes the activity report of a configuration under a
// model.
func Estimate(c *config.Config, m Model) *Report {
	r := &Report{
		II:        c.II,
		Ops:       map[string]int{},
		Breakdown: map[string]float64{},
	}
	add := func(component string, e float64) {
		r.Energy += e
		r.Breakdown[component] += e
	}
	for pe := range c.PEs {
		for t := range c.PEs[pe] {
			pc := c.PEs[pe][t]
			active := false
			if pc.Node >= 0 {
				active = true
				op := c.DFG.Nodes[pc.Node].Op
				r.Ops[op.String()]++
				add("compute", opEnergy(m, op))
			} else if pc.Forward.Kind != config.SrcNone {
				active = true
				r.Moves++
				add("moves", m.MoveOp)
			}
			for d := range pc.Links {
				if pc.Links[d].Kind != config.SrcNone {
					active = true
					r.LinkHops++
					add("links", m.LinkHop)
				}
			}
			for _, src := range pc.Regs {
				if src.Kind != config.SrcNone && src.Kind != config.SrcKeep {
					active = true
					r.RegWrites++
					add("regfile", m.RegWrite)
				}
			}
			if active {
				r.ActivePEs++
				add("config", m.ConfigFetch)
			}
		}
	}
	return r
}

func opEnergy(m Model, op dfg.OpKind) float64 {
	switch {
	case op.IsMem():
		return m.MemOp
	case op.IsMul():
		return m.MulOp
	case op.IsDiv():
		return m.DivOp
	default:
		return m.ALUOp
	}
}

// EstimateMapping is a convenience wrapper: generate the configuration
// and estimate it under the default model.
func EstimateMapping(mp *mapping.Mapping) (*Report, error) {
	c, err := config.Generate(mp)
	if err != nil {
		return nil, err
	}
	return Estimate(c, DefaultModel()), nil
}

// RoutingOverhead returns the fraction of energy spent on data movement
// (links, moves, register writes) rather than computation — the metric
// that distinguishes a tight mapping from a sprawling one at equal II.
func (r *Report) RoutingOverhead() float64 {
	routing := r.Breakdown["links"] + r.Breakdown["moves"] + r.Breakdown["regfile"]
	if r.Energy == 0 {
		return 0
	}
	return routing / r.Energy
}

// String renders the report.
func (r *Report) String() string {
	var b strings.Builder
	fmt.Fprintf(&b, "activity per iteration (II=%d):\n", r.II)
	var ops []string
	for k := range r.Ops {
		ops = append(ops, k)
	}
	sort.Strings(ops)
	for _, k := range ops {
		fmt.Fprintf(&b, "  %-8s x%d\n", k, r.Ops[k])
	}
	fmt.Fprintf(&b, "  moves    x%d\n  linkhops x%d\n  regwrite x%d\n  activePE x%d\n",
		r.Moves, r.LinkHops, r.RegWrites, r.ActivePEs)
	fmt.Fprintf(&b, "energy: %.1f units/iteration (routing overhead %.0f%%)\n",
		r.Energy, 100*r.RoutingOverhead())
	var comps []string
	for k := range r.Breakdown {
		comps = append(comps, k)
	}
	sort.Strings(comps)
	for _, k := range comps {
		fmt.Fprintf(&b, "  %-8s %6.1f\n", k, r.Breakdown[k])
	}
	return b.String()
}
