package dist

import (
	"sync"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// manhattan is the mesh hop distance between two PEs, ignoring wrap
// links.
func manhattan(a *arch.CGRA, p, q int) int {
	pr, pc := a.PECoord(p)
	qr, qc := a.PECoord(q)
	return max(pr-qr, qr-pr) + max(pc-qc, qc-pc)
}

func TestMeshHopsEqualManhattan(t *testing.T) {
	a := arch.New4x4(2)
	o := For(mrrg.New(a, 2))
	for from := 0; from < a.NumPEs(); from++ {
		for to := 0; to < a.NumPEs(); to++ {
			if got, want := o.Hops(from, to), manhattan(a, from, to); got != want {
				t.Fatalf("mesh Hops(%d,%d) = %d, want Manhattan %d", from, to, got, want)
			}
		}
	}
}

func TestTorusHopsBeatManhattan(t *testing.T) {
	a := arch.New("tor", 4, 4, 1, 2, 0)
	a.Torus = true
	o := For(mrrg.New(a, 2))
	// One wrap hop across the row.
	if got := o.Hops(0, 3); got != 1 {
		t.Fatalf("Hops(0,3) on torus = %d, want 1", got)
	}
	// Opposite corners: two wrap hops.
	if got := o.Hops(0, 15); got != 2 {
		t.Fatalf("Hops(0,15) on torus = %d, want 2", got)
	}
	// The torus is vertex-transitive: distance <= (rows+cols)/2.
	for from := 0; from < 16; from++ {
		for to := 0; to < 16; to++ {
			if o.Hops(from, to) > 4 {
				t.Fatalf("Hops(%d,%d) = %d exceeds torus diameter 4", from, to, o.Hops(from, to))
			}
		}
	}
}

func TestNeedCycles(t *testing.T) {
	o := For(mrrg.New(arch.New4x4(1), 3))
	if got := o.NeedCycles(5, 5); got != 1 {
		t.Fatalf("same-PE NeedCycles = %d, want 1", got)
	}
	if got := o.NeedCycles(0, 15); got != 7 {
		t.Fatalf("corner NeedCycles = %d, want Manhattan(6)+1", got)
	}
}

// TestCacheSharesOracle checks that graphs with the same wired topology
// share one oracle, across IIs (distances are II-independent) and
// concurrent callers.
func TestCacheSharesOracle(t *testing.T) {
	a := arch.New4x4(4)
	o1 := For(mrrg.New(a, 2))
	o2 := For(mrrg.New(a, 6)) // different II, same topology
	if o1 != o2 {
		t.Fatal("same topology at different IIs did not share the oracle")
	}
	h0, m0 := CacheStats()
	var wg sync.WaitGroup
	got := make([]*Oracle, 16)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = For(mrrg.New(arch.New4x4(4), 3))
		}(i)
	}
	wg.Wait()
	for i, o := range got {
		if o != o1 {
			t.Fatalf("goroutine %d got a different oracle", i)
		}
	}
	h1, m1 := CacheStats()
	if h1-h0 != 16 || m1 != m0 {
		t.Fatalf("cache stats moved by hits=%d misses=%d, want 16/0", h1-h0, m1-m0)
	}

	// A different topology must not collide.
	b := arch.New("tor", 4, 4, 4, 2, 0)
	b.Torus = true
	if For(mrrg.New(b, 2)) == o1 {
		t.Fatal("torus and mesh shared a fingerprint")
	}
}
