package config

import (
	"strings"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/pathfinder"
	"rewire/internal/sweep"
)

// handMapping builds a small mapping by hand: ld(PE0@0) -> add(PE1@2)
// -> st(PE0@4), with the add also reading itself (accumulator).
func handMapping(t *testing.T) *mapping.Mapping {
	t.Helper()
	g := dfg.New("hand")
	ld := g.AddNode("ld a[i]", dfg.OpLoad)
	ad := g.AddNode("acc", dfg.OpAdd)
	st := g.AddNode("st o[i]", dfg.OpStore)
	g.AddEdgeOp(ld, ad, 0, 0)
	g.AddEdgeOp(ad, ad, 1, 1) // self recurrence
	g.AddEdgeOp(ad, st, 0, 0)
	s := mapping.NewSession(mapping.New(g, arch.New4x4(2), 3))
	if err := s.PlaceNode(ld, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(ad, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(st, 0, 4); err != nil {
		t.Fatal(err)
	}
	// ld -> add: east link at t=1.
	if err := s.RouteEdge(0, []mrrg.Node{s.Graph.Link(0, arch.East, 1)}); err != nil {
		t.Fatal(err)
	}
	// acc self edge, latency II=3: reg dwell then feed back.
	if err := s.RouteEdge(1, []mrrg.Node{s.Graph.Reg(1, 0, 0), s.Graph.Reg(1, 0, 1)}); err != nil {
		t.Fatal(err)
	}
	// add -> st, latency 2: west link at t=0 (time 3 mod 3).
	if err := s.RouteEdge(2, []mrrg.Node{s.Graph.Link(1, arch.West, 3)}); err != nil {
		t.Fatal(err)
	}
	return s.M
}

func TestGenerateHandMapping(t *testing.T) {
	c, err := Generate(handMapping(t))
	if err != nil {
		t.Fatal(err)
	}
	// The load executes on PE0 slot 0 and holds a bank port there.
	if c.PEs[0][0].Node != 0 || c.PEs[0][0].Op != dfg.OpLoad {
		t.Fatalf("PE0@0 = %+v", c.PEs[0][0])
	}
	foundPort := false
	for p := range c.Banks {
		if c.Banks[p][0] == 0 {
			foundPort = true
		}
	}
	if !foundPort {
		t.Fatal("load's bank port not scheduled")
	}
	// The add on PE1 slot 2 reads operand 0 from the west input latch
	// (value sent by PE0) and operand 1 from register 0.
	addPC := c.PEs[1][2]
	if addPC.Node != 1 {
		t.Fatalf("PE1@2 = %+v", addPC)
	}
	if addPC.Operands[0] != (Src{Kind: SrcIn, Dir: arch.West}) {
		t.Fatalf("operand 0 = %v, want in.W", addPC.Operands[0])
	}
	if addPC.Operands[1] != (Src{Kind: SrcReg, Reg: 0}) {
		t.Fatalf("operand 1 = %v, want r0", addPC.Operands[1])
	}
	// PE0's east link at t=1 is driven by PE0's ALU latch.
	if c.PEs[0][1].Links[arch.East] != (Src{Kind: SrcALU}) {
		t.Fatalf("PE0 east link = %v", c.PEs[0][1].Links[arch.East])
	}
	// The register dwell: r0 written from ALU at t=0, kept at t=1.
	if c.PEs[1][0].Regs[0] != (Src{Kind: SrcALU}) {
		t.Fatalf("PE1 r0@0 = %v, want alu", c.PEs[1][0].Regs[0])
	}
	if c.PEs[1][1].Regs[0] != (Src{Kind: SrcKeep}) {
		t.Fatalf("PE1 r0@1 = %v, want keep", c.PEs[1][1].Regs[0])
	}
	// The store reads from its east input latch (PE1 sent west).
	stPC := c.PEs[0][1] // time 4 mod 3 = 1
	if stPC.Node != 2 || stPC.Operands[0] != (Src{Kind: SrcIn, Dir: arch.East}) {
		t.Fatalf("store word = %+v", stPC)
	}
}

func TestGenerateRejectsInvalidMapping(t *testing.T) {
	m := handMapping(t)
	m.Routes[1] = nil // break it
	if _, err := Generate(m); err == nil || !strings.Contains(err.Error(), "invalid mapping") {
		t.Fatalf("err = %v", err)
	}
}

func TestDisassembleMentionsEverything(t *testing.T) {
	c, err := Generate(handMapping(t))
	if err != nil {
		t.Fatal(err)
	}
	d := c.Disassemble()
	for _, want := range []string{"load", "add", "store", "out.E<=alu", "r0<=keep", "bank ports", "in.W"} {
		if !strings.Contains(d, want) {
			t.Fatalf("disassembly missing %q:\n%s", want, d)
		}
	}
}

func TestGenerateFromRealMapper(t *testing.T) {
	g := kernels.MustLoad("mvt")
	m, res := pathfinder.Map(g, arch.New4x4(4), pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 3 * time.Second}})
	if m == nil {
		t.Fatalf("mapping failed: %v", res)
	}
	c, err := Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	// Every node appears exactly once across the configuration.
	seen := map[int]int{}
	for pe := range c.PEs {
		for tt := range c.PEs[pe] {
			if n := c.PEs[pe][tt].Node; n >= 0 {
				seen[n]++
			}
		}
	}
	if len(seen) != g.NumNodes() {
		t.Fatalf("scheduled %d of %d nodes", len(seen), g.NumNodes())
	}
	for n, count := range seen {
		if count != 1 {
			t.Fatalf("node %d scheduled %d times", n, count)
		}
	}
	// Every memory op holds exactly one bank slot.
	memScheduled := 0
	for p := range c.Banks {
		for tt := range c.Banks[p] {
			if c.Banks[p][tt] >= 0 {
				memScheduled++
			}
		}
	}
	if memScheduled != g.MemOps() {
		t.Fatalf("bank slots = %d, mem ops = %d", memScheduled, g.MemOps())
	}
}

func TestSrcString(t *testing.T) {
	cases := map[string]Src{
		"-":    {Kind: SrcNone},
		"alu":  {Kind: SrcALU},
		"in.N": {Kind: SrcIn, Dir: arch.North},
		"r2":   {Kind: SrcReg, Reg: 2},
		"keep": {Kind: SrcKeep},
	}
	for want, src := range cases {
		if src.String() != want {
			t.Errorf("String(%+v) = %q, want %q", src, src.String(), want)
		}
	}
}

func TestOperandSlotsAndArity(t *testing.T) {
	g := dfg.New("t")
	a := g.AddNode("a", dfg.OpAdd)
	sel := g.AddNode("s", dfg.OpSelect)
	g.AddEdgeOp(a, sel, 0, 2)
	if operandSlots(g, sel) != 3 {
		t.Fatalf("select slots = %d", operandSlots(g, sel))
	}
	if arity(dfg.OpStore) != 1 || arity(dfg.OpLoad) != 0 {
		t.Fatal("arity wrong")
	}
}

// TestSharedHopDifferentFeeders reproduces a route tree where two
// equal-phase branches of one net reach the same link through different
// feeders (a register dwell on one branch, a held-forward on the other).
// Occupancy guarantees both carry the same value instance, so config
// generation keeps the first mux select instead of failing; the
// simulator must still produce correct values through the kept feeder.
func TestSharedHopDifferentFeeders(t *testing.T) {
	g := dfg.New("sharedhop")
	u := g.AddNode("u", dfg.OpAdd)
	v1 := g.AddNode("v1", dfg.OpAdd)
	v2 := g.AddNode("v2", dfg.OpAdd)
	g.AddEdge(u, v1, 0)
	g.AddEdge(u, v2, 0)
	s := mapping.NewSession(mapping.New(g, arch.New4x4(2), 4))
	// u on PE2@0; both consumers read via L(6,S)@3 at phase 3, but the
	// two routes take different equal-length prefixes.
	if err := s.PlaceNode(u, 2, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(v1, 10, 4); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(v2, 10, 5); err != nil {
		t.Fatal(err)
	}
	gph := s.Graph
	// Route 1: FU(2)@0 -> L(2,S)@1 -> reg(6)@2 -> L(6,S)@3 -> FU(10)@4.
	r1 := []mrrg.Node{gph.Link(2, arch.South, 1), gph.Reg(6, 0, 2), gph.Link(6, arch.South, 3)}
	if err := s.RouteEdge(0, r1); err != nil {
		t.Fatal(err)
	}
	// Route 2: FU(2)@0 -> FU(2)@1 (ALU forward) -> L(2,S)@2 -> L(6,S)@3
	// (entering from in.N where route 1 entered from r0) -> reg(10)@0.
	r2 := []mrrg.Node{gph.FU(2, 1), gph.Link(2, arch.South, 2), gph.Link(6, arch.South, 3), gph.Reg(10, 0, 0)}
	if err := s.RouteEdge(1, r2); err != nil {
		t.Fatal(err)
	}
	if err := mapping.Validate(s.M); err != nil {
		t.Fatal(err)
	}
	c, err := Generate(s.M)
	if err != nil {
		t.Fatalf("shared hop with different feeders rejected: %v", err)
	}
	// Exactly one mux select survives on the shared link.
	if c.PEs[6][3].Links[arch.South].Kind == SrcNone {
		t.Fatal("shared link not programmed")
	}
}
