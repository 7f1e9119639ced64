package route

import (
	"math/rand"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// TestRouterExpansionTotals pins the exact work of the router on the
// query streams of the root package's BenchmarkSubRouter,
// BenchmarkFindPathCongested and BenchmarkFindPathShared: the same
// fabrics, occupancy, seeds and query draws, replayed for a fixed number
// of queries. Expansions is a deterministic function of the search, so
// any change to the pruning, the heuristics or the queue's pop order
// that adds or removes one pop on any query moves a total here.
func TestRouterExpansionTotals(t *testing.T) {
	for _, tc := range []struct {
		name    string
		queries int
		run     func(n int) int64
		want    int64
	}{
		{"SubRouter", 2000, subRouterStream, 10817},
		{"FindPathCongested", 2000, congestedStream, 19567},
		{"FindPathShared", 512, sharedStream, 17350},
	} {
		if got := tc.run(tc.queries); got != tc.want {
			t.Errorf("%s: %d queries pop %d states, want %d", tc.name, tc.queries, got, tc.want)
		}
	}
}

// subRouterStream replays BenchmarkSubRouter: strict routing over an
// empty 8x8r4 fabric at II 4 between random PEs at latencies 1-10.
func subRouterStream(n int) int64 {
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	r := NewRouter(g, DefaultMaxLat(8, 8, 4))
	return randomQueries(r, g, StrictCost(st, 1), rand.New(rand.NewSource(1)), n)
}

// congestedStream replays BenchmarkFindPathCongested: the same queries
// over a fabric whose routing resources are half held by a foreign net.
func congestedStream(n int) int64 {
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	rng := rand.New(rand.NewSource(2))
	for v := mrrg.Node(0); int(v) < g.NumNodes(); v++ {
		if g.Valid(v) && g.Kind(v) != mrrg.KindFU && rng.Intn(2) == 0 {
			if err := st.Reserve(v, 999, rng.Intn(4)); err != nil {
				panic(err)
			}
		}
	}
	r := NewRouter(g, DefaultMaxLat(8, 8, 4))
	return randomQueries(r, g, StrictCost(st, 1), rng, n)
}

func randomQueries(r *Router, g *mrrg.Graph, cost CostFn, rng *rand.Rand, n int) int64 {
	start := r.Expansions
	for i := 0; i < n; i++ {
		srcPE, dstPE := rng.Intn(64), rng.Intn(64)
		lat := 1 + rng.Intn(10)
		r.FindPath(g.FU(srcPE, 0), g.FU(dstPE, lat%4), lat, cost, Flat(1))
	}
	return r.Expansions - start
}

// sharedStream replays BenchmarkFindPathShared: strict routing at the
// own-net sharing floor for a net holding three committed routes, on a
// 4x4r2 fabric at II 4 with a third of its routing resources held by a
// foreign net, cycling through 256 fixed queries after one warm pass.
func sharedStream(n int) int64 {
	g := mrrg.New(arch.New4x4(2), 4)
	st := mrrg.NewState(g)
	rng := rand.New(rand.NewSource(3))
	for v := mrrg.Node(0); int(v) < g.NumNodes(); v++ {
		if g.Valid(v) && g.Kind(v) != mrrg.KindFU && rng.Intn(3) == 0 {
			if err := st.Reserve(v, 999, 1+rng.Intn(8)); err != nil {
				panic(err)
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
				panic(err)
			}
			floor = Floor{Min: StrictSharedCost, Routes: append(floor.Routes, p)}
		}
	}
	type query struct {
		dst mrrg.Node
		lat int
	}
	queries := make([]query, 256)
	for i := range queries {
		lat := 4 + rng.Intn(8)
		queries[i] = query{g.FU(rng.Intn(16), lat), lat}
	}
	for _, q := range queries {
		r.FindPath(src, q.dst, q.lat, cost, floor)
	}
	start := r.Expansions
	for i := 0; i < n; i++ {
		q := queries[i%len(queries)]
		r.FindPath(src, q.dst, q.lat, cost, floor)
	}
	return r.Expansions - start
}
