package power

import (
	"strings"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/config"
	"rewire/internal/kernels"
	"rewire/internal/pathfinder"
	"rewire/internal/sweep"
)

func estimate(t *testing.T, kernel string) *Report {
	t.Helper()
	g := kernels.MustLoad(kernel)
	m, res := pathfinder.Map(g, arch.New4x4(4), pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 3 * time.Second}, CandidateBeam: 8})
	if m == nil {
		t.Fatalf("mapping failed: %v", res)
	}
	r, err := EstimateMapping(m)
	if err != nil {
		t.Fatal(err)
	}
	return r
}

func TestOpCountsMatchDFG(t *testing.T) {
	g := kernels.MustLoad("mvt")
	r := estimate(t, "mvt")
	total := 0
	for _, n := range r.Ops {
		total += n
	}
	if total != g.NumNodes() {
		t.Fatalf("op events = %d, want every node once (%d)", total, g.NumNodes())
	}
	mem := r.Ops["load"] + r.Ops["store"]
	if mem != g.MemOps() {
		t.Fatalf("mem events = %d, want %d", mem, g.MemOps())
	}
}

func TestEnergyComposition(t *testing.T) {
	r := estimate(t, "fft")
	if r.Energy <= 0 {
		t.Fatal("no energy estimated")
	}
	var sum float64
	for _, e := range r.Breakdown {
		sum += e
	}
	if diff := sum - r.Energy; diff > 1e-9 || diff < -1e-9 {
		t.Fatalf("breakdown sums to %f, total %f", sum, r.Energy)
	}
	if ov := r.RoutingOverhead(); ov <= 0 || ov >= 1 {
		t.Fatalf("routing overhead = %f, expected within (0,1)", ov)
	}
}

func TestModelWeightsApplied(t *testing.T) {
	// A custom model with free routing must yield lower energy than one
	// with expensive routing, on the same configuration.
	g := kernels.MustLoad("susan")
	m, res := pathfinder.Map(g, arch.New4x4(4), pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 2, TimePerII: 3 * time.Second}, CandidateBeam: 8})
	if m == nil {
		t.Fatalf("mapping failed: %v", res)
	}
	c, err := config.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	cheap := DefaultModel()
	cheap.LinkHop, cheap.RegWrite, cheap.MoveOp = 0, 0, 0
	lo := Estimate(c, cheap)
	hi := Estimate(c, DefaultModel())
	if lo.Energy >= hi.Energy {
		t.Fatalf("free routing (%f) should cost less than priced routing (%f)", lo.Energy, hi.Energy)
	}
	if lo.RoutingOverhead() != 0 {
		t.Fatal("free routing must have zero overhead fraction")
	}
}

func TestReportString(t *testing.T) {
	r := estimate(t, "gesummv")
	s := r.String()
	for _, want := range []string{"activity per iteration", "energy:", "linkhops", "compute"} {
		if !strings.Contains(s, want) {
			t.Fatalf("report missing %q:\n%s", want, s)
		}
	}
}
