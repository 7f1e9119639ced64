// Package viz renders mappings, post-mortem reports and the ledger for
// humans: per-cycle ASCII grids of the PE array showing which operation
// executes where, a resource-utilisation summary, a route table, the
// failure report with its pressure heatmap, and the QoR dashboard.
package viz

import (
	"fmt"
	"sort"
	"strings"

	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

// MappingGrid renders a mapping as one PE-array grid per modulo cycle.
// Each cell shows the node name (truncated) executing on that PE at that
// cycle, or dots for an idle ALU.
func MappingGrid(m *mapping.Mapping) string {
	const cellW = 9
	var b strings.Builder
	fmt.Fprintf(&b, "%s on %s, II=%d\n", m.DFG.Name, m.Arch.Name, m.II)
	byCell := map[[2]int]string{} // (pe, t mod II) -> label
	for v := range m.Place {
		if !m.Placed(v) {
			continue
		}
		t := ((m.Place[v].Time % m.II) + m.II) % m.II
		byCell[[2]int{m.Place[v].PE, t}] = trim(m.DFG.Nodes[v].Name, cellW-1)
	}
	for t := 0; t < m.II; t++ {
		fmt.Fprintf(&b, "cycle %d:\n", t)
		for r := 0; r < m.Arch.Rows; r++ {
			for c := 0; c < m.Arch.Cols; c++ {
				label, ok := byCell[[2]int{m.Arch.PEIndex(r, c), t}]
				if !ok {
					label = "."
				}
				fmt.Fprintf(&b, "%-*s", cellW, label)
			}
			b.WriteByte('\n')
		}
	}
	return b.String()
}

func trim(s string, n int) string {
	if len(s) <= n {
		return s
	}
	return s[:n]
}

// Utilisation summarises how full the fabric is: ALU slots in use, link
// and register slots held by routes, and bank-port pressure.
func Utilisation(m *mapping.Mapping) (string, error) {
	s, err := mapping.Restore(m)
	if err != nil {
		return "", err
	}
	counts := map[mrrg.Kind][2]int{} // kind -> [used, total]
	for n := 0; n < s.Graph.NumNodes(); n++ {
		nd := mrrg.Node(n)
		if !s.Graph.Valid(nd) {
			continue
		}
		k := s.Graph.Kind(nd)
		uc := counts[k]
		uc[1]++
		if !s.State.Free(nd) {
			uc[0]++
		}
		counts[k] = uc
	}
	kinds := []mrrg.Kind{mrrg.KindFU, mrrg.KindLink, mrrg.KindReg, mrrg.KindBank}
	var b strings.Builder
	fmt.Fprintf(&b, "utilisation of %s at II=%d:\n", m.Arch.Name, m.II)
	for _, k := range kinds {
		uc := counts[k]
		if uc[1] == 0 {
			continue
		}
		fmt.Fprintf(&b, "  %-5s %4d/%4d (%5.1f%%)\n", k, uc[0], uc[1], 100*float64(uc[0])/float64(uc[1]))
	}
	return b.String(), nil
}

// RouteTable lists every edge's route in readable form, sorted by edge
// ID; useful when debugging a mapper or inspecting an example's output.
func RouteTable(m *mapping.Mapping) (string, error) {
	s, err := mapping.Restore(m)
	if err != nil {
		return "", err
	}
	var b strings.Builder
	ids := make([]int, 0, len(m.Routes))
	for e := range m.Routes {
		ids = append(ids, e)
	}
	sort.Ints(ids)
	for _, e := range ids {
		ed := m.DFG.Edges[e]
		fmt.Fprintf(&b, "e%-3d %-10s -> %-10s lat=%d:", e,
			trim(m.DFG.Nodes[ed.From].Name, 10), trim(m.DFG.Nodes[ed.To].Name, 10), m.Latency(e))
		if m.Routes[e] == nil {
			b.WriteString(" UNROUTED\n")
			continue
		}
		for _, n := range m.Routes[e] {
			b.WriteString(" ")
			b.WriteString(s.Graph.String(n))
		}
		b.WriteByte('\n')
	}
	return b.String(), nil
}
