package mapping

import (
	"slices"
	"strings"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mrrg"
)

// chain builds load -> add -> store.
func chain() *dfg.Graph {
	g := dfg.New("chain")
	ld := g.AddNode("ld", dfg.OpLoad)
	ad := g.AddNode("add", dfg.OpAdd)
	st := g.AddNode("st", dfg.OpStore)
	g.AddEdge(ld, ad, 0)
	g.AddEdge(ad, st, 0)
	return g
}

func newSess(t *testing.T, g *dfg.Graph, ii int) *Session {
	t.Helper()
	return NewSession(New(g, arch.New4x4(2), ii))
}

func TestPlaceUnplaceRoundTrip(t *testing.T) {
	s := newSess(t, chain(), 2)
	if err := s.PlaceNode(1, 5, 3); err != nil {
		t.Fatal(err)
	}
	if !s.M.Placed(1) || s.M.Place[1] != (Placement{PE: 5, Time: 3}) {
		t.Fatalf("placement = %+v", s.M.Place[1])
	}
	// FU occupied mod II: slot t=1.
	if s.State.Free(s.Graph.FU(5, 1)) {
		t.Fatal("FU not reserved")
	}
	if err := s.PlaceNode(2, 5, 1); err == nil {
		t.Fatal("conflicting FU placement must fail (3 mod 2 == 1)")
	}
	s.UnplaceNode(1)
	if s.M.Placed(1) || !s.State.Free(s.Graph.FU(5, 1)) {
		t.Fatal("unplace did not clean up")
	}
}

func TestMemPlacementRules(t *testing.T) {
	s := newSess(t, chain(), 2)
	// PE 5 is not in the memory column (column 0) on the 4x4 preset.
	if err := s.PlaceNode(0, 5, 0); err == nil {
		t.Fatal("load on non-memory PE must fail")
	}
	if s.CanPlace(0, 5, 0) {
		t.Fatal("CanPlace must agree")
	}
	free := slices.Clone(s.State.FreeRows())
	// PE 0 is memory-capable.
	if err := s.PlaceNode(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	port := s.M.BankPorts[0]
	if port == mrrg.Invalid {
		t.Fatal("memory op got no bank port")
	}
	s.UnplaceNode(0)
	// FreeRows holds every resource but the bank ports.
	if !slices.Equal(s.State.FreeRows(), free) || !s.State.Free(port) {
		t.Fatal("unplace leaked reservations")
	}
}

func TestBankPortExhaustion(t *testing.T) {
	// 2 banks * 2 ports = 4 accesses per cycle; the 4x4 preset has 4
	// memory PEs (0, 4, 8, 12), so at II=1 a fifth access cannot fit —
	// but there are only 4 mem PEs, so build a DFG with 4 mem ops and
	// verify the 4th still fits and FU exclusivity binds first.
	g := dfg.New("mem")
	for i := 0; i < 4; i++ {
		g.AddNode("ld", dfg.OpLoad)
	}
	s := NewSession(New(g, arch.New4x4(2), 1))
	pes := []int{0, 4, 8, 12}
	for i, pe := range pes {
		if err := s.PlaceNode(i, pe, 0); err != nil {
			t.Fatalf("mem op %d: %v", i, err)
		}
	}
	if s.State.FreeBankPort(0) != mrrg.Invalid {
		t.Fatal("expected all bank ports taken")
	}
}

func TestLatencyAndCheckPath(t *testing.T) {
	s := newSess(t, chain(), 2)
	// ld on PE0@0, add on PE1@2 (east neighbour, two hops in time).
	if err := s.PlaceNode(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if lat := s.M.Latency(0); lat != 2 {
		t.Fatalf("latency = %d, want 2", lat)
	}
	// Valid: east link of PE0 at t=1 (phase 1).
	good := []mrrg.Node{s.Graph.Link(0, arch.East, 1)}
	if err := s.CheckPath(0, good); err != nil {
		t.Fatal(err)
	}
	// Wrong length.
	if err := s.CheckPath(0, nil); err == nil {
		t.Fatal("short path accepted")
	}
	// Non-adjacent hop.
	bad := []mrrg.Node{s.Graph.Link(2, arch.East, 1)}
	if err := s.CheckPath(0, bad); err == nil {
		t.Fatal("non-adjacent path accepted")
	}
}

func TestRouteEdgeReservesAndReleases(t *testing.T) {
	s := newSess(t, chain(), 2)
	mustPlace(t, s, 0, 0, 0)
	mustPlace(t, s, 1, 1, 2)
	path := []mrrg.Node{s.Graph.Link(0, arch.East, 1)}
	if err := s.RouteEdge(0, path); err != nil {
		t.Fatal(err)
	}
	if s.State.Free(path[0]) {
		t.Fatal("route did not reserve")
	}
	if err := s.RouteEdge(0, path); err == nil {
		t.Fatal("double-routing must fail")
	}
	s.UnrouteEdge(0)
	if !s.State.Free(path[0]) {
		t.Fatal("unroute did not release")
	}
}

func TestUnplaceWithRoutedEdgePanics(t *testing.T) {
	s := newSess(t, chain(), 2)
	mustPlace(t, s, 0, 0, 0)
	mustPlace(t, s, 1, 0, 1)
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	s.UnplaceNode(0)
}

func TestRipNode(t *testing.T) {
	s := newSess(t, chain(), 3)
	mustPlace(t, s, 0, 0, 0)
	mustPlace(t, s, 1, 0, 1)
	mustPlace(t, s, 2, 0, 2)
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RouteEdge(1, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	s.RipNode(1)
	if s.M.Placed(1) || s.M.Routed(0) || s.M.Routed(1) {
		t.Fatal("rip incomplete")
	}
	if !s.M.Placed(0) || !s.M.Placed(2) {
		t.Fatal("rip damaged neighbours")
	}
}

func TestIllMapped(t *testing.T) {
	s := newSess(t, chain(), 2)
	mustPlace(t, s, 0, 0, 0)
	mustPlace(t, s, 1, 0, 1)
	// Node 2 unplaced; edge 0 (between placed 0 and 1) unrouted.
	ill := s.IllMapped()
	want := []int{0, 1, 2}
	if len(ill) != 3 || ill[0] != want[0] || ill[1] != want[1] || ill[2] != want[2] {
		t.Fatalf("IllMapped = %v, want %v", ill, want)
	}
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	ill = s.IllMapped()
	if len(ill) != 1 || ill[0] != 2 {
		t.Fatalf("IllMapped = %v, want [2]", ill)
	}
}

func TestValidateAcceptsGoodMapping(t *testing.T) {
	s := newSess(t, chain(), 3)
	mustPlace(t, s, 0, 0, 0)
	mustPlace(t, s, 1, 0, 1)
	mustPlace(t, s, 2, 0, 2)
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RouteEdge(1, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(s.M); err != nil {
		t.Fatal(err)
	}
}

func TestValidateRejectsCorruption(t *testing.T) {
	build := func() *Mapping {
		s := newSess(t, chain(), 3)
		mustPlace(t, s, 0, 0, 0)
		mustPlace(t, s, 1, 0, 1)
		mustPlace(t, s, 2, 0, 2)
		if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
			t.Fatal(err)
		}
		if err := s.RouteEdge(1, []mrrg.Node{}); err != nil {
			t.Fatal(err)
		}
		return s.M
	}
	m := build()
	m.Place[2] = Unplaced
	if err := Validate(m); err == nil || !strings.Contains(err.Error(), "unplaced") {
		t.Fatalf("unplaced node not caught: %v", err)
	}
	m = build()
	m.Routes[1] = nil
	if err := Validate(m); err == nil {
		t.Fatal("unrouted edge not caught")
	}
	m = build()
	m.Place[1] = Placement{PE: 0, Time: 2} // FU clash with node 2 and broken latency
	if err := Validate(m); err == nil {
		t.Fatal("FU conflict not caught")
	}
	m = build()
	m.BankPorts[1] = m.BankPorts[0] // non-mem node holding a port
	if err := Validate(m); err == nil {
		t.Fatal("bank port on ALU op not caught")
	}
}

// TestValidateRejectsBadBankPorts edits a stored bank port the way a
// hostile bundle can: each edit keeps the port's modulo time, so only a
// check of the resource itself catches it, and GenerateConfig would
// panic on the mapping Validate let through.
func TestValidateRejectsBadBankPorts(t *testing.T) {
	// Two loads at the same modulo time on two memory PEs, so they hold
	// the two distinct bank ports of that cycle.
	build := func() *Mapping {
		g := dfg.New("loads")
		g.AddNode("a", dfg.OpLoad)
		g.AddNode("b", dfg.OpLoad)
		s := newSess(t, g, 3)
		mustPlace(t, s, 0, 0, 1)
		mustPlace(t, s, 1, 4, 1)
		if err := Validate(s.M); err != nil {
			t.Fatal(err)
		}
		return s.M
	}
	far := mrrg.Node(3 << 20) // II · 2^20: the same modulo time, past every node
	for _, tc := range []struct {
		name   string
		mutate func(m *Mapping)
		want   string
	}{
		{"port mod II is an FU", func(m *Mapping) { m.BankPorts[0] %= mrrg.Node(m.II) }, "not a bank port"},
		{"port past the graph", func(m *Mapping) { m.BankPorts[0] += far }, "not a bank port"},
		{"negative port", func(m *Mapping) { m.BankPorts[0] = -2 }, "not a bank port"},
		{"shared port", func(m *Mapping) { m.BankPorts[1] = m.BankPorts[0] }, "shares bank port"},
	} {
		m := build()
		tc.mutate(m)
		if err := Validate(m); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: Validate = %v, want an error containing %q", tc.name, err, tc.want)
		}
	}
}

func TestValidateRejectsNegativeLatency(t *testing.T) {
	s := newSess(t, chain(), 2)
	mustPlace(t, s, 0, 0, 5)
	mustPlace(t, s, 1, 1, 5) // same time as producer: latency 0
	if err := s.CheckPath(0, []mrrg.Node{}); err == nil {
		t.Fatal("latency-0 edge accepted")
	}
}

func TestSelfEdgeAccumulator(t *testing.T) {
	g := dfg.New("acc")
	a := g.AddNode("acc", dfg.OpAdd)
	g.AddEdge(a, a, 1)
	m := New(g, arch.New4x4(2), 2)
	s := NewSession(m)
	mustPlace(t, s, 0, 3, 0)
	// Latency = 0 - 0 + 1*2 = 2: one intermediate resource, e.g. reg dwell.
	if lat := m.Latency(0); lat != 2 {
		t.Fatalf("self-edge latency = %d", lat)
	}
	path := []mrrg.Node{s.Graph.Reg(3, 0, 1)}
	if err := s.RouteEdge(0, path); err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestSelfEdgeAtIIOne(t *testing.T) {
	g := dfg.New("acc")
	a := g.AddNode("acc", dfg.OpAdd)
	g.AddEdge(a, a, 1)
	m := New(g, arch.New4x4(2), 1)
	s := NewSession(m)
	mustPlace(t, s, 0, 3, 0)
	// Latency 1, empty path, FU->FU forwarding self edge.
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestCloneAndRestore(t *testing.T) {
	s := newSess(t, chain(), 3)
	mustPlace(t, s, 0, 0, 0)
	mustPlace(t, s, 1, 0, 1)
	mustPlace(t, s, 2, 0, 2)
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	if err := s.RouteEdge(1, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	c := s.M.Clone()
	s.UnrouteEdge(0)
	if !c.Routed(0) {
		t.Fatal("clone shares route storage")
	}
	r, err := Restore(c)
	if err != nil {
		t.Fatal(err)
	}
	if err := Validate(r.M); err != nil {
		t.Fatal(err)
	}
}

func TestUnplacedNodesAndSummary(t *testing.T) {
	s := newSess(t, chain(), 2)
	mustPlace(t, s, 1, 0, 1)
	up := s.M.UnplacedNodes()
	if len(up) != 2 || up[0] != 0 || up[1] != 2 {
		t.Fatalf("UnplacedNodes = %v", up)
	}
	if !strings.Contains(s.M.Summary(), "1/3 placed") {
		t.Fatalf("summary = %q", s.M.Summary())
	}
}

func mustPlace(t *testing.T, s *Session, v, pe, T int) {
	t.Helper()
	if err := s.PlaceNode(v, pe, T); err != nil {
		t.Fatalf("place %d on (%d,%d): %v", v, pe, T, err)
	}
}

func TestPlaceNodeFUSlotModuloConflict(t *testing.T) {
	g := dfg.New("slots")
	a := g.AddNode("a", dfg.OpAdd)
	b := g.AddNode("b", dfg.OpAdd)
	s := NewSession(New(g, arch.New4x4(1), 3))
	mustPlace(t, s, a, 2, 1)
	// Same PE at time 4 = slot 1: must clash.
	if err := s.PlaceNode(b, 2, 4); err == nil {
		t.Fatal("modulo FU clash not detected")
	}
	// Time 5 = slot 2 is fine.
	if err := s.PlaceNode(b, 2, 5); err != nil {
		t.Fatal(err)
	}
}

func TestNegativeTimesSupported(t *testing.T) {
	// Absolute schedule times may be negative (amendment can place a
	// producer "before" the anchor frame); occupancy wraps correctly.
	g := dfg.New("neg")
	a := g.AddNode("a", dfg.OpAdd)
	b := g.AddNode("b", dfg.OpAdd)
	g.AddEdge(a, b, 0)
	s := NewSession(New(g, arch.New4x4(2), 3))
	mustPlace(t, s, a, 5, -2)
	mustPlace(t, s, b, 5, -1)
	if err := s.RouteEdge(0, []mrrg.Node{}); err != nil {
		t.Fatal(err)
	}
	if err := Validate(s.M); err != nil {
		t.Fatal(err)
	}
	// -2 mod 3 = 1: the FU slot is taken.
	c := dfg.New("probe")
	_ = c
	if s.State.Free(s.Graph.FU(5, 1)) {
		t.Fatal("negative time not wrapped into slot 1")
	}
}

// TestSessionsShareGraph pins the MRRG cache integration: sessions over
// the same architecture and II reuse one immutable graph (concurrently
// too — each session still owns a private State), and Close returns the
// state to the pool without touching the shared graph.
func TestSessionsShareGraph(t *testing.T) {
	a := arch.New4x4(4)
	s1 := NewSession(New(chain(), a, 3))
	s2 := NewSession(New(chain(), a, 3))
	if s1.Graph != s2.Graph {
		t.Fatal("two sessions at the same arch+II built separate graphs")
	}
	if s3 := NewSession(New(chain(), a, 4)); s3.Graph == s1.Graph {
		t.Fatal("different II shared a graph")
	}
	// Private states: a reservation in one session is invisible to the other.
	n := s1.Graph.FU(3, 1)
	if err := s1.State.Reserve(n, 1, 1); err != nil {
		t.Fatal(err)
	}
	if !s2.State.Free(n) {
		t.Fatal("states leaked between sessions sharing a graph")
	}
	g := s1.Graph
	s1.Close()
	s2.Close()
	if s1.State != nil || s2.State != nil {
		t.Fatal("Close did not detach the state")
	}
	if NewSession(New(chain(), a, 3)).Graph != g {
		t.Fatal("graph evicted by session close")
	}
}
