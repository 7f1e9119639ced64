package pathfinder

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

func tinyChain() *dfg.Graph {
	g := dfg.New("tiny")
	ld := g.AddNode("ld", dfg.OpLoad)
	m1 := g.AddNode("m1", dfg.OpMul)
	a1 := g.AddNode("a1", dfg.OpAdd)
	st := g.AddNode("st", dfg.OpStore)
	g.AddEdge(ld, m1, 0)
	g.AddEdge(m1, a1, 0)
	g.AddEdge(a1, st, 0)
	g.AddEdge(a1, a1, 1) // accumulator
	return g
}

func TestMapTinyChainReachesMII(t *testing.T) {
	m, res := Map(tinyChain(), arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if m == nil || !res.Success {
		t.Fatalf("mapping failed: %v", res)
	}
	if res.II != res.MII {
		t.Fatalf("II = %d, MII = %d; tiny chain should map optimally", res.II, res.MII)
	}
	if err := mapping.Validate(m); err != nil {
		t.Fatal(err)
	}
}

func TestMapIsDeterministicPerSeed(t *testing.T) {
	// The budget must never bind for run-to-run equality to hold: mvt is
	// work-bounded (the remap budget terminates each II) in well under a
	// second natively, but the race job's ~20x slowdown makes a small
	// wall-clock budget bind and the runs diverge.
	g := kernels.MustLoad("mvt")
	a := arch.New4x4(4)
	_, r1 := Map(g, a, Options{RunOptions: sweep.RunOptions{Seed: 42, TimePerII: time.Hour}})
	_, r2 := Map(g, a, Options{RunOptions: sweep.RunOptions{Seed: 42, TimePerII: time.Hour}})
	if r1.II != r2.II || r1.RemapIterations != r2.RemapIterations {
		t.Fatalf("same seed diverged: %v vs %v", r1, r2)
	}
}

func TestMapRespectsMaxII(t *testing.T) {
	// An unsatisfiable setup: memory kernel on a fabric whose MaxII is
	// below any feasible II. crc has RecMII 8, so MaxII 2 must fail fast.
	g := kernels.MustLoad("crc")
	m, res := Map(g, arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, MaxII: 2, TimePerII: time.Second}})
	if m != nil || res.Success {
		t.Fatal("must fail when MaxII < RecMII")
	}
}

func TestBuildInitialPlacesMostNodes(t *testing.T) {
	g := kernels.MustLoad("fft")
	a := arch.New4x4(4)
	mii := g.MII(a.NumPEs(), a.NumMemPEs(), a.BankPorts())
	var eff stats.Effort
	sess, router := BuildInitialTraced(context.Background(), mapping.New(g, a, mii+1), 1, &eff, nil, nil)
	if router == nil {
		t.Fatal("no router")
	}
	placed := 0
	for v := range sess.M.Place {
		if sess.M.Placed(v) {
			placed++
		}
	}
	if placed < g.NumNodes()*3/4 {
		t.Fatalf("initial placement too sparse: %d/%d", placed, g.NumNodes())
	}
}

func TestRemapIterationsCounted(t *testing.T) {
	g := kernels.MustLoad("gramsch")
	_, res := Map(g, arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if !res.Success {
		t.Skip("gramsch did not map in budget")
	}
	if res.RemapIterations <= 0 {
		t.Fatalf("remap iterations = %d, expected > 0 for a non-trivial kernel", res.RemapIterations)
	}
}

func TestMinHops(t *testing.T) {
	a := arch.New4x4(1)
	p := newPerII(kernels.MustLoad("gramsch"), a, 4, rand.New(rand.NewSource(1)), &stats.Effort{})
	if got := p.router.NeedCycles(3, 3); got != 1 {
		t.Fatalf("same-PE forwarding = %d, want 1 cycle", got)
	}
	if got := p.router.NeedCycles(0, 15); got != 7 {
		t.Fatalf("corner-to-corner = %d, want Manhattan(6)+1", got)
	}
}

func TestMapValidatedOutputsOnPresets(t *testing.T) {
	g := kernels.MustLoad("viterbi")
	for _, a := range arch.Presets() {
		m, res := Map(g, a, Options{RunOptions: sweep.RunOptions{Seed: 3, TimePerII: 2 * time.Second}})
		if m == nil {
			t.Logf("%s: no mapping (%v)", a.Name, res)
			continue
		}
		if err := mapping.Validate(m); err != nil {
			t.Fatalf("%s: invalid mapping: %v", a.Name, err)
		}
		if res.II < res.MII {
			t.Fatalf("%s: II %d below MII %d", a.Name, res.II, res.MII)
		}
	}
}
