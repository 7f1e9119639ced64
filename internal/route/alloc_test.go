package route

import (
	"math/rand"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// TestFindPathAllocs pins the router hot path's allocation budget: one
// allocation per successful call (the returned path, which callers
// retain) and zero per failed call. A regression here means the banned
// set, duplicate detector, or priority queue started allocating again.
func TestFindPathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	r := NewRouter(g, DefaultMaxLat(8, 8, 4))
	cost := StrictCost(st, 1)

	src, dst := g.FU(0, 0), g.FU(9, 1)
	if _, ok := r.FindPath(src, dst, 5, cost, Flat(1)); !ok {
		t.Fatal("setup route must exist")
	}
	got := testing.AllocsPerRun(100, func() {
		if _, ok := r.FindPath(src, dst, 5, cost, Flat(1)); !ok {
			t.Fatal("route vanished")
		}
	})
	if got > 1 {
		t.Errorf("successful FindPath allocates %.1f/op, want <= 1 (the returned path)", got)
	}

	// An impossible latency fails before searching; an unreachable exact
	// latency fails after searching. Neither may allocate.
	got = testing.AllocsPerRun(100, func() {
		if _, ok := r.FindPath(src, dst, 2, cost, Flat(1)); ok {
			t.Fatal("latency 2 to a Manhattan-3 PE should be unroutable")
		}
	})
	if got > 0 {
		t.Errorf("failed FindPath allocates %.1f/op, want 0", got)
	}
}

// TestFindPathSharedAllocs pins the allocation budget exactly in the
// hot case of Rewire's verification: strict routing at the own-net
// sharing floor for a net with committed routes, which the floor
// carries, over congested occupancy, where searches split into an A*
// pass and a pruned replay. A batch of
// fixed queries, some of which fail, must allocate exactly one path per
// successful query and nothing else, however many succeed.
func TestFindPathSharedAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	g := mrrg.New(arch.New4x4(2), 4)
	st := mrrg.NewState(g)
	rng := rand.New(rand.NewSource(3))
	for n := mrrg.Node(0); int(n) < g.NumNodes(); n++ {
		if g.Valid(n) && g.Kind(n) != mrrg.KindFU && rng.Intn(3) == 0 {
			if err := st.Reserve(n, 999, 1+rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		}
	}
	r := NewRouter(g, DefaultMaxLat(4, 4, 4))
	const net = mrrg.Net(1)
	src := g.FU(5, 0)
	cost := StrictCost(st, net)
	floor := Flat(1)
	for len(floor.Routes) < 3 {
		lat := 3 + rng.Intn(6)
		if p, ok := r.FindPath(src, g.FU(rng.Intn(16), lat), lat, cost, floor); ok {
			if err := st.ReservePath(p, net, 1); err != nil {
				t.Fatal(err)
			}
			floor = Floor{Min: StrictSharedCost, Routes: append(floor.Routes, p)}
		}
	}
	type query struct {
		dst mrrg.Node
		lat int
	}
	queries := make([]query, 64)
	for i := range queries {
		lat := 4 + rng.Intn(8)
		queries[i] = query{g.FU(rng.Intn(16), lat), lat}
	}
	found := 0
	for _, q := range queries {
		if _, ok := r.FindPath(src, q.dst, q.lat, cost, floor); ok {
			found++
		}
	}
	if found == 0 || found == len(queries) {
		t.Fatalf("%d of %d queries succeed; the check needs both outcomes", found, len(queries))
	}
	got := testing.AllocsPerRun(10, func() {
		for _, q := range queries {
			r.FindPath(src, q.dst, q.lat, cost, floor)
		}
	})
	if got != float64(found) {
		t.Errorf("%d queries (%d successful) allocate %v times, want %d (one returned path each)", len(queries), found, got, found)
	}
}

// TestRouterTrimsQueue checks the retention bound: after a search that
// opened more than maxRetainedLevels levels, the router keeps at most
// maxRetainedLevels level bitsets, each of (maxLat+1)·SlotWords words
// plus their summary words (TestRouterLevelSize), and as many level
// records. The overgrown arena is injected directly: typical fabrics
// drain the queue too fast to reach the cap organically, which is
// exactly why an occasional pathological search would otherwise pin its
// peak allocation for the router's lifetime.
func TestRouterTrimsQueue(t *testing.T) {
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	r := NewRouter(g, DefaultMaxLat(8, 8, 4))
	cost := StrictCost(st, 1)

	const overgrown = 4 * maxRetainedLevels
	for len(r.q.chunks)*chunkLevels < overgrown {
		r.q.chunks = append(r.q.chunks, make([]uint64, chunkLevels*r.q.size))
	}
	r.q.spare = make([]int32, 0, overgrown)
	r.q.levels = make([]qlevel, 0, overgrown)
	if _, ok := r.FindPath(g.FU(0, 0), g.FU(9, 1), 5, cost, Flat(1)); !ok {
		t.Fatal("route must exist")
	}
	retained := 0
	for _, c := range r.q.chunks[:cap(r.q.chunks)] {
		retained += cap(c)
	}
	if retained > maxRetainedLevels*r.q.size {
		t.Errorf("router retains %d arena words after FindPath, cap is %d levels of %d", retained, maxRetainedLevels, r.q.size)
	}
	if got := max(cap(r.q.levels), cap(r.q.spare)); got > maxRetainedLevels {
		t.Errorf("router retains bookkeeping for %d levels after FindPath, cap is %d", got, maxRetainedLevels)
	}
	// And routing still works with the fresh queue.
	if _, ok := r.FindPath(g.FU(0, 0), g.FU(9, 1), 5, cost, Flat(1)); !ok {
		t.Fatal("route must survive the trim")
	}
}
