package sa

import (
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/sweep"
)

func tinyChain() *dfg.Graph {
	g := dfg.New("tiny")
	ld := g.AddNode("ld", dfg.OpLoad)
	m1 := g.AddNode("m1", dfg.OpMul)
	st := g.AddNode("st", dfg.OpStore)
	g.AddEdge(ld, m1, 0)
	g.AddEdge(m1, st, 0)
	return g
}

func TestMapTinyChain(t *testing.T) {
	m, res := Map(tinyChain(), arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if m == nil || !res.Success {
		t.Fatalf("failed: %v", res)
	}
	if err := mapping.Validate(m); err != nil {
		t.Fatal(err)
	}
	if res.II > res.MII+1 {
		t.Fatalf("II = %d vs MII %d: tiny chain should be easy", res.II, res.MII)
	}
}

func TestDeterministicPerSeed(t *testing.T) {
	g := kernels.MustLoad("gesummv")
	a := arch.New4x4(4)
	_, r1 := Map(g, a, Options{RunOptions: sweep.RunOptions{Seed: 9, TimePerII: 2 * time.Second}})
	_, r2 := Map(g, a, Options{RunOptions: sweep.RunOptions{Seed: 9, TimePerII: 2 * time.Second}})
	if r1.II != r2.II || r1.RemapIterations != r2.RemapIterations {
		t.Fatalf("same seed diverged: %v vs %v", r1, r2)
	}
}

func TestMoveCountsAsRemapIterations(t *testing.T) {
	g := kernels.MustLoad("mvt")
	_, res := Map(g, arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if res.Success && res.RemapIterations <= 0 {
		t.Fatalf("iterations = %d; SA must count its moves", res.RemapIterations)
	}
}

func TestEdgeCostPenalisesInfeasibleLatency(t *testing.T) {
	g := tinyChain()
	an := newAnnealer(g, arch.New4x4(2), 2, nil, nil)
	// Manually place producer and consumer impossibly: same cycle.
	if err := an.sess.PlaceNode(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := an.sess.PlaceNode(1, 5, 0); err != nil {
		t.Fatal(err)
	}
	if c := an.edgeCost(0); c < penaltyUnroutable {
		t.Fatalf("cost %d should include infeasibility penalty", c)
	}
	// Feasible placement costs just the latency.
	an.sess.UnplaceNode(1)
	if err := an.sess.PlaceNode(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if c := an.edgeCost(0); c != 2 {
		t.Fatalf("cost = %d, want latency 2", c)
	}
}

func TestRouteAllRollsBackOnFailure(t *testing.T) {
	// Two producers feeding one consumer through a single-register
	// corridor can fail; whatever happens, a failed routeAll must leave
	// no reservations behind beyond placements.
	g := kernels.MustLoad("gemver")
	an := newAnnealer(g, arch.New4x4(1), 5, nil, nil)
	// No placements: routeAll must report false (unplaced nodes).
	if an.routeAll() {
		t.Fatal("routeAll with unplaced nodes must fail")
	}
}

func TestFailsGracefullyWhenImpossible(t *testing.T) {
	// crc needs II >= 8 (recurrence); MaxII 3 must fail and report it.
	g := kernels.MustLoad("crc")
	m, res := Map(g, arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, MaxII: 3, TimePerII: time.Second}})
	if m != nil || res.Success {
		t.Fatal("expected failure")
	}
	if res.MII != 8 {
		t.Fatalf("MII = %d, want 8", res.MII)
	}
}
