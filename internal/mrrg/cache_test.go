package mrrg

import (
	"runtime/debug"
	"sync"
	"testing"

	"rewire/internal/arch"
)

func TestSharedReturnsSameGraph(t *testing.T) {
	a := arch.New4x4(4)
	g1 := Shared(a, 4)
	g2 := Shared(a, 4)
	if g1 != g2 {
		t.Fatal("same arch+II built two graphs")
	}
	if g3 := Shared(a, 5); g3 == g1 {
		t.Fatal("different II shared a graph")
	}
	// An equivalent but distinct CGRA value hits too: the key is the
	// architecture fingerprint, not the pointer.
	if g4 := Shared(arch.New4x4(4), 4); g4 != g1 {
		t.Fatal("equal architecture missed the cache")
	}
}

// TestSharedHitAllocatesNoGraph pins the shared-graph fast path at zero
// allocations: a session's acquisition of an already-built graph and a
// pooled state, and the state's recycling. GC is off while counting, so
// a collection that empties the state pool cannot add a count.
func TestSharedHitAllocatesNoGraph(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	defer debug.SetGCPercent(debug.SetGCPercent(-1))
	a := arch.New8x8(4)
	NewState(Shared(a, 4)).Recycle() // warm the cache and the pool
	allocs := testing.AllocsPerRun(100, func() {
		g := Shared(a, 4)
		st := NewState(g)
		st.Recycle()
	})
	if allocs != 0 {
		t.Fatalf("cache hit allocated %v objects per run, want 0", allocs)
	}
}

func TestSharedConcurrent(t *testing.T) {
	a := arch.New8x8(4)
	var wg sync.WaitGroup
	got := make([]*Graph, 32)
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = Shared(a, 7)
		}(i)
	}
	wg.Wait()
	for i := 1; i < len(got); i++ {
		if got[i] != got[0] {
			t.Fatalf("goroutine %d got a different graph", i)
		}
	}
}

func TestCacheStatsMove(t *testing.T) {
	h0, m0 := CacheStats()
	a := arch.New("cachestats", 3, 3, 2, 2, 0)
	Shared(a, 2)
	Shared(a, 2)
	h1, m1 := CacheStats()
	if m1-m0 < 1 {
		t.Fatalf("miss not counted: %d -> %d", m0, m1)
	}
	if h1-h0 < 1 {
		t.Fatalf("hit not counted: %d -> %d", h0, h1)
	}
}

// TestStateRecycleReuse checks the sync.Pool contract: a recycled state
// comes back blank (as NewState promises) even after heavy mutation.
func TestStateRecycleReuse(t *testing.T) {
	g := Shared(arch.New4x4(2), 3)
	for round := 0; round < 8; round++ {
		s := NewState(g)
		for n := Node(0); int(n) < g.NumNodes(); n++ {
			if occ, _ := s.Occupant(n); occ != NoNet {
				t.Fatalf("round %d: recycled state not blank at %s", round, g.String(n))
			}
		}
		// Dirty a swath of resources, then recycle.
		for n := Node(0); int(n) < g.NumNodes(); n += 3 {
			if g.Valid(n) && s.Free(n) {
				if err := s.Reserve(n, Net(round), round%3); err != nil {
					t.Fatal(err)
				}
			}
		}
		s.Recycle()
	}
}
