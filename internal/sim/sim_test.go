package sim

import (
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/config"
	"rewire/internal/core"
	"rewire/internal/dfg"
	"rewire/internal/kernelir"
	"rewire/internal/kernels"
	"rewire/internal/pathfinder"
	"rewire/internal/sa"
	"rewire/internal/sweep"
)

// mapAndConfig maps a DFG with PF* (fast beam) and generates its config.
func mapAndConfig(t *testing.T, g *dfg.Graph, a *arch.CGRA) *config.Config {
	t.Helper()
	m, res := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 3 * time.Second}, CandidateBeam: 8})
	if m == nil {
		t.Fatalf("mapping failed: %v", res)
	}
	c, err := config.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

func fromIR(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	prog, err := kernelir.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	g, err := kernelir.Lower(prog)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

func TestVerifySimpleStream(t *testing.T) {
	g := fromIR(t, "kernel k\nc[i] = a[i] + b[i]\n")
	c := mapAndConfig(t, g, arch.New4x4(2))
	if err := Verify(c, 8); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyAccumulator(t *testing.T) {
	g := fromIR(t, "kernel k\ns += a[i]\nout[i] = s\n")
	c := mapAndConfig(t, g, arch.New4x4(2))
	if err := Verify(c, 10); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyNonCommutativeOps(t *testing.T) {
	// Subtraction and shifts catch swapped operand muxes instantly.
	g := fromIR(t, `
kernel k
t = a[i] - b[i]
u = t >> 1
v = b[i] - a[i]
out[i] = u - v
out2[i] = v
`)
	c := mapAndConfig(t, g, arch.New4x4(2))
	if err := Verify(c, 8); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyDelayedReads(t *testing.T) {
	g := fromIR(t, `
kernel k
t = a[i] + a[i+1]
s += t * t
out[i] = s + t@2
`)
	c := mapAndConfig(t, g, arch.New4x4(4))
	if err := Verify(c, 12); err != nil {
		t.Fatal(err)
	}
}

func TestVerifySelectAndMinMax(t *testing.T) {
	g := fromIR(t, `
kernel k
param thresh
c = cmp(a[i], b[i])
out[i] = sel(c, a[i], b[i])
out2[i] = max(a[i], b[i]) - min(a[i], b[i])
`)
	c := mapAndConfig(t, g, arch.New4x4(2))
	if err := Verify(c, 8); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyRepresentativeKernelsAllMappers(t *testing.T) {
	a := arch.New4x4(4)
	for _, name := range []string{"mvt", "fft", "viterbi"} {
		g := kernels.MustLoad(name)
		// PF* (fast variant).
		c := mapAndConfig(t, g, a)
		if err := Verify(c, 6); err != nil {
			t.Errorf("%s via PF*: %v", name, err)
		}
		// Rewire.
		if m, res := core.Map(g, a, core.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}}); m != nil {
			cfg, err := config.Generate(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := Verify(cfg, 6); err != nil {
				t.Errorf("%s via Rewire: %v", name, err)
			}
		} else {
			t.Logf("%s: Rewire found no mapping in budget (%v)", name, res)
		}
		// SA.
		if m, _ := sa.Map(g, a, sa.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}}); m != nil {
			cfg, err := config.Generate(m)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			if err := Verify(cfg, 6); err != nil {
				t.Errorf("%s via SA: %v", name, err)
			}
		}
	}
}

func TestRunTraceLengths(t *testing.T) {
	g := fromIR(t, "kernel k\nout[i] = a[i] + b[i]\nout2[i] = a[i] - b[i]\n")
	c := mapAndConfig(t, g, arch.New4x4(2))
	tr, err := Run(c, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(tr.Stores) != 2 {
		t.Fatalf("store nodes = %d, want 2", len(tr.Stores))
	}
	for node, vals := range tr.Stores {
		if len(vals) != 5 {
			t.Fatalf("node %d: %d stores, want 5", node, len(vals))
		}
	}
	if _, err := Run(c, -1); err == nil {
		t.Fatal("negative iterations accepted")
	}
}

func TestVerifyDetectsCorruptedConfig(t *testing.T) {
	g := fromIR(t, "kernel k\nout[i] = a[i] - b[i]\n")
	c := mapAndConfig(t, g, arch.New4x4(2))
	// Swap the subtraction's operand muxes: the trace must differ.
	var pe, tt int
	found := false
	for p := range c.PEs {
		for ts := range c.PEs[p] {
			if c.PEs[p][ts].Node >= 0 && c.PEs[p][ts].Op == dfg.OpSub {
				pe, tt = p, ts
				found = true
			}
		}
	}
	if !found {
		t.Fatal("no sub in config")
	}
	ops := c.PEs[pe][tt].Operands
	ops[0], ops[1] = ops[1], ops[0]
	err := Verify(c, 6)
	if err == nil || !strings.Contains(err.Error(), "mismatch") {
		t.Fatalf("corruption not detected: %v", err)
	}
}

func TestOppositeDir(t *testing.T) {
	pairs := map[arch.Dir]arch.Dir{
		arch.North: arch.South, arch.South: arch.North,
		arch.East: arch.West, arch.West: arch.East,
	}
	for d, o := range pairs {
		if oppositeDir(d) != o {
			t.Fatalf("opposite(%v) = %v", d, oppositeDir(d))
		}
	}
}

// Property-style sweep: random IR kernels map, configure, and verify.
func TestPropRandomKernelsVerify(t *testing.T) {
	if testing.Short() {
		t.Skip("slow property test")
	}
	rng := rand.New(rand.NewSource(11))
	a := arch.New4x4(4)
	for trial := 0; trial < 10; trial++ {
		src := randomKernel(rng)
		g := fromIR(t, src)
		m, res := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: int64(trial), TimePerII: 2 * time.Second}, CandidateBeam: 8})
		if m == nil {
			t.Logf("trial %d: unmappable (%v)\n%s", trial, res, src)
			continue
		}
		c, err := config.Generate(m)
		if err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
		if err := Verify(c, 7); err != nil {
			t.Fatalf("trial %d: %v\n%s", trial, err, src)
		}
	}
}

// randomKernel produces a small valid IR kernel with mixed op kinds,
// accumulators, and delayed reads.
func randomKernel(rng *rand.Rand) string {
	ops := []string{"+", "-", "*", "&", "^", ">>"}
	var b strings.Builder
	b.WriteString("kernel rnd\n")
	b.WriteString("t0 = a[i] + b[i]\n")
	n := 2 + rng.Intn(5)
	for s := 1; s <= n; s++ {
		prev := rng.Intn(s)
		op := ops[rng.Intn(len(ops))]
		switch rng.Intn(3) {
		case 0:
			fmt.Fprintf(&b, "t%d = t%d %s c%d[i]\n", s, prev, op, rng.Intn(3))
		case 1:
			fmt.Fprintf(&b, "t%d = t%d %s t%d@%d\n", s, prev, op, prev, 1+rng.Intn(2))
		default:
			fmt.Fprintf(&b, "t%d = max(t%d, d[i-%d])\n", s, prev, rng.Intn(2))
		}
	}
	fmt.Fprintf(&b, "s += t%d\nout[i] = s\nout2[i] = t%d\n", n, n)
	return b.String()
}
