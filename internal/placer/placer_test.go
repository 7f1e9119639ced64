package placer

import (
	"math/rand"
	"slices"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

func triad(t *testing.T, ii int) *mapping.Session {
	t.Helper()
	g := dfg.New("triad")
	a := g.AddNode("a", dfg.OpAdd)
	b := g.AddNode("b", dfg.OpAdd)
	c := g.AddNode("c", dfg.OpStore)
	g.AddEdge(a, b, 0)
	g.AddEdge(b, c, 0)
	g.AddEdge(c, a, 1)
	return mapping.NewSession(mapping.New(g, arch.New4x4(2), ii))
}

func TestTimeWindowUnconstrained(t *testing.T) {
	s := triad(t, 2)
	w := TimeWindow(s, 1, 5, 3)
	if w.Lo != 5 || w.Hi != 8 {
		t.Fatalf("window = %+v, want [5,8]", w)
	}
}

func TestTimeWindowParentBound(t *testing.T) {
	s := triad(t, 2)
	if err := s.PlaceNode(0, 0, 4); err != nil {
		t.Fatal(err)
	}
	w := TimeWindow(s, 1, 0, 3)
	if w.Lo != 5 {
		t.Fatalf("lower bound = %d, want parent time+1 = 5", w.Lo)
	}
}

func TestTimeWindowChildBound(t *testing.T) {
	s := triad(t, 2)
	if err := s.PlaceNode(2, 0, 9); err != nil {
		t.Fatal(err)
	}
	w := TimeWindow(s, 1, 0, 20)
	if w.Hi != 8 {
		t.Fatalf("upper bound = %d, want child time-1 = 8", w.Hi)
	}
}

func TestTimeWindowRecurrenceEdgeUsesDistance(t *testing.T) {
	s := triad(t, 3)
	// Edge c->a has distance 1: placing a constrains c via
	// T_c <= T_a - 1 + II... from c's perspective (child a placed):
	if err := s.PlaceNode(0, 0, 2); err != nil {
		t.Fatal(err)
	}
	w := TimeWindow(s, 2, 0, 20)
	if w.Hi != 2-1+3 {
		t.Fatalf("Hi = %d, want %d", w.Hi, 2-1+3)
	}
}

func TestTimeWindowEmpty(t *testing.T) {
	s := triad(t, 2)
	if err := s.PlaceNode(0, 0, 10); err != nil { // parent forces >= 11
		t.Fatal(err)
	}
	if err := s.PlaceNode(2, 4, 5); err != nil { // child forces <= 4
		t.Fatal(err)
	}
	if w := TimeWindow(s, 1, 0, 20); !w.Empty() {
		t.Fatalf("window should be empty, got %+v", w)
	}
}

func TestCandidatesRespectOccupancyAndMemRules(t *testing.T) {
	g := dfg.New("m")
	g.AddNode("ld", dfg.OpLoad)
	s := mapping.NewSession(mapping.New(g, arch.New4x4(1), 1))
	cands := Candidates(s, 0, Window{Lo: 0, Hi: 0}, nil)
	// Loads may only sit on the 4 left-column PEs.
	if len(cands) != 4 {
		t.Fatalf("candidates = %d, want 4", len(cands))
	}
	for _, c := range cands {
		if c.PE%4 != 0 {
			t.Fatalf("candidate %v not in memory column", c)
		}
	}
	// Occupy one memory FU: one fewer candidate.
	if err := s.PlaceNode(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	g2 := dfg.New("m2")
	g2.AddNode("ld2", dfg.OpLoad)
	// Same session cannot place a foreign graph's node; instead re-check
	// candidates for a hypothetical second load via CanPlace semantics.
	s.UnplaceNode(0)
	if err := s.PlaceNode(0, 4, 0); err != nil {
		t.Fatal(err)
	}
	_ = g2
}

func TestCandidatesOrderDeterministic(t *testing.T) {
	s := triad(t, 2)
	a := Candidates(s, 0, Window{Lo: 0, Hi: 1}, nil)
	b := Candidates(s, 0, Window{Lo: 0, Hi: 1}, nil)
	if len(a) != len(b) || len(a) != 32 {
		t.Fatalf("lengths %d/%d, want 32 (16 PEs x 2 times)", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatal("order not deterministic")
		}
	}
	// Time-major ordering.
	if a[0].Time != 0 || a[len(a)-1].Time != 1 {
		t.Fatal("not time-major")
	}
}

// candidatesRef is Candidates as it was first written: every (PE, T)
// slot of the window, time-major, kept when Session.CanPlace allows it.
func candidatesRef(s *mapping.Session, v int, w Window) []mapping.Placement {
	var out []mapping.Placement
	for T := w.Lo; T <= w.Hi; T++ {
		for pe := 0; pe < s.M.Arch.NumPEs(); pe++ {
			if s.CanPlace(v, pe, T) {
				out = append(out, mapping.Placement{PE: pe, Time: T})
			}
		}
	}
	return out
}

// TestCandidatesMatchCanPlace compares Candidates with candidatesRef on
// random occupancy: every op class on a fabric with stripped
// multipliers, memory ops with some bank-port cycles full and others
// free, negative times, windows narrower and wider than II, and a
// reused buffer that must come back holding only the new list.
func TestCandidatesMatchCanPlace(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	hetero := arch.New4x4(2)
	hetero.StripClass(arch.ClassMul, 0, 5, 10, 15)
	fabrics := []*arch.CGRA{arch.New4x4(2), hetero, arch.New8x8(1)}
	var buf []mapping.Placement
	fullPorts, freePorts, compared := 0, 0, 0
	for trial := 0; trial < 60; trial++ {
		g := dfg.Random(rng, dfg.RandomConfig{Nodes: 24, EdgeProb: 0.1, MemFrac: 0.4})
		a := fabrics[trial%len(fabrics)]
		ii := 1 + rng.Intn(4)
		s := mapping.NewSession(mapping.New(g, a, ii))
		// Occupy a random half of the nodes at random slots, then take
		// every bank port of one cycle (by a net outside the DFG) so
		// memory ops meet both full and free cycles.
		for v := 0; v < g.NumNodes(); v += 2 {
			_ = s.PlaceNode(v, rng.Intn(a.NumPEs()), rng.Intn(3*ii)-ii)
		}
		full := rng.Intn(ii)
		for p := 0; p < a.BankPorts(); p++ {
			if n := s.Graph.Bank(p, full); s.State.Free(n) {
				if err := s.State.Reserve(n, mrrg.Net(g.NumNodes()), 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for v := 1; v < g.NumNodes(); v += 2 {
			lo := rng.Intn(4*ii) - 2*ii
			w := Window{Lo: lo, Hi: lo + rng.Intn(2*ii+3) - 1}
			want := candidatesRef(s, v, w)
			buf = Candidates(s, v, w, buf[:0])
			if !slices.Equal(buf, want) {
				t.Fatalf("trial %d node %d (%s) window %+v at II %d:\n  got  %v\n  want %v",
					trial, v, g.Nodes[v].Op, w, ii, buf, want)
			}
			compared++
			if g.Nodes[v].Op.IsMem() {
				for T := w.Lo; T <= w.Hi; T++ {
					if s.State.FreeBankPort(s.Graph.Time(s.Graph.FU(0, T))) == mrrg.Invalid {
						fullPorts++
					} else {
						freePorts++
					}
				}
			}
		}
		s.Close()
	}
	if fullPorts == 0 || freePorts == 0 {
		t.Fatalf("bank-port cycles seen full %d times, free %d times; want both", fullPorts, freePorts)
	}
	t.Logf("%d windows compared; memory-op cycles with full ports %d, free %d", compared, fullPorts, freePorts)
}

// candidatesFixture is a busy 4x4r4 session at II 4, the window of
// node 0 and a warm candidate buffer.
func candidatesFixture() (*mapping.Session, Window, []mapping.Placement) {
	rng := rand.New(rand.NewSource(1))
	g := dfg.Random(rng, dfg.RandomConfig{Nodes: 24, EdgeProb: 0.1, MemFrac: 0.3})
	a := arch.New4x4(4)
	s := mapping.NewSession(mapping.New(g, a, 4))
	for v := 1; v < g.NumNodes(); v++ {
		_ = s.PlaceNode(v, rng.Intn(a.NumPEs()), rng.Intn(8))
	}
	w := Window{Lo: 0, Hi: DefaultSlack(4)}
	return s, w, Candidates(s, 0, w, nil)
}

// BenchmarkCandidates enumerates a node's slots over a busy session with
// a warm buffer; TestCandidatesAllocs pins it at 0 allocations.
func BenchmarkCandidates(b *testing.B) {
	s, w, buf := candidatesFixture()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = Candidates(s, 0, w, buf[:0])
	}
}

// TestCandidatesAllocs pins placement-candidate enumeration into a warm
// buffer at zero allocations.
func TestCandidatesAllocs(t *testing.T) {
	s, w, buf := candidatesFixture()
	if len(buf) == 0 {
		t.Fatal("node 0 has no candidates; the check needs some")
	}
	if allocs := testing.AllocsPerRun(1000, func() { buf = Candidates(s, 0, w, buf[:0]) }); allocs != 0 {
		t.Fatalf("Candidates into a warm buffer allocates %v times, want 0", allocs)
	}
}

func TestDefaultSlack(t *testing.T) {
	if DefaultSlack(4) != 7 {
		t.Fatalf("DefaultSlack(4) = %d", DefaultSlack(4))
	}
}
