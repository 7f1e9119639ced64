package viz

import (
	"strings"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

func smallMapping(t *testing.T) *mapping.Mapping {
	t.Helper()
	g := dfg.New("tiny")
	ld := g.AddNode("ld", dfg.OpLoad)
	ad := g.AddNode("sum", dfg.OpAdd)
	st := g.AddNode("st", dfg.OpStore)
	g.AddEdge(ld, ad, 0)
	g.AddEdge(ad, st, 0)
	s := mapping.NewSession(mapping.New(g, arch.New4x4(2), 2))
	if err := s.PlaceNode(ld, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(ad, 0, 1); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(st, 4, 3); err != nil {
		t.Fatal(err)
	}
	if err := s.RouteEdge(0, nil); err != nil {
		t.Fatal(err)
	}
	// ad (PE0@1) -> st (PE4@3): south link at t=2.
	if err := s.RouteEdge(1, []mrrg.Node{s.Graph.Link(0, arch.South, 2)}); err != nil {
		t.Fatal(err)
	}
	return s.M
}

func TestMappingGridShowsAllNodes(t *testing.T) {
	m := smallMapping(t)
	grid := MappingGrid(m)
	for _, want := range []string{"ld", "sum", "st", "cycle 0", "cycle 1", "II=2"} {
		if !strings.Contains(grid, want) {
			t.Fatalf("grid missing %q:\n%s", want, grid)
		}
	}
	// One grid block per cycle: rows = II * Rows + headers.
	if strings.Count(grid, "cycle ") != 2 {
		t.Fatalf("want 2 cycle blocks:\n%s", grid)
	}
}

func TestMappingGridSkipsUnplaced(t *testing.T) {
	m := smallMapping(t)
	m2 := m.Clone()
	m2.Routes[1] = nil
	m2.Routes[0] = nil
	m2.Place[2] = mapping.Unplaced
	m2.BankPorts[2] = mrrg.Invalid
	grid := MappingGrid(m2)
	if strings.Contains(grid, "st") {
		t.Fatalf("unplaced node rendered:\n%s", grid)
	}
}

func TestUtilisation(t *testing.T) {
	m := smallMapping(t)
	u, err := Utilisation(m)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"fu", "link", "bank"} {
		if !strings.Contains(u, want) {
			t.Fatalf("utilisation missing %q:\n%s", want, u)
		}
	}
	// 3 placed ops of 32 FU slots.
	if !strings.Contains(u, "3/  32") {
		t.Fatalf("unexpected FU count:\n%s", u)
	}
}

func TestRouteTable(t *testing.T) {
	m := smallMapping(t)
	rt, err := RouteTable(m)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rt, "link(pe0,S)@0") && !strings.Contains(rt, "link(pe0,S)@") {
		t.Fatalf("route table missing link hop:\n%s", rt)
	}
	m2 := m.Clone()
	m2.Routes[1] = nil
	rt2, err := RouteTable(m2)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(rt2, "UNROUTED") {
		t.Fatalf("unrouted edge not flagged:\n%s", rt2)
	}
}
