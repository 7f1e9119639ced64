package route

import (
	"math/rand"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// queryStream is a fixed list of router queries over one fabric and
// occupancy: the query streams of the root package's BenchmarkSubRouter,
// BenchmarkFindPathCongested and BenchmarkFindPathShared.
type queryStream struct {
	r       *Router
	cost    CostFn
	floor   Floor
	queries []streamQuery
}

type streamQuery struct {
	src, dst mrrg.Node
	lat      int
}

// run routes every query once and returns how many paths the router
// handed back that hold at least one resource: a latency-1 path is
// empty and allocates nothing.
func (s *queryStream) run() (paths int) {
	for _, q := range s.queries {
		if p, ok := s.r.FindPath(q.src, q.dst, q.lat, s.cost, s.floor); ok && len(p) > 0 {
			paths++
		}
	}
	return paths
}

// queryStreams pins, per stream, the router's total pops and the
// allocations of one warm pass: one per non-empty path FindPath
// returns. The paths it discards because they repeat a resource before
// it retries (301 on SubRouter, 179 on FindPathCongested, none on the
// shared stream) are rebuilt in the router's buffer and allocate
// nothing.
var queryStreams = []struct {
	name       string
	build      func() *queryStream
	expansions int64
	paths      int
}{
	{"SubRouter", subRouterStream, 10817, 926},
	{"FindPathCongested", congestedStream, 19567, 579},
	{"FindPathShared", sharedStream, 17350, 496},
}

// TestRouterExpansionTotals pins the exact work of the router on the
// three query streams: the same fabrics, occupancy, seeds and query
// draws as the benchmarks, 2,000, 2,000 and 512 queries. Expansions is
// a deterministic function of the search, so any change to the pruning,
// the heuristics or the queue's pop order that adds or removes one pop
// on any query moves a total here.
func TestRouterExpansionTotals(t *testing.T) {
	for _, tc := range queryStreams {
		s := tc.build()
		start := s.r.Expansions
		s.run()
		if got := s.r.Expansions - start; got != tc.expansions {
			t.Errorf("%s: %d queries pop %d states, want %d", tc.name, len(s.queries), got, tc.expansions)
		}
	}
}

// TestRouterStreamAllocs pins the router's allocations on the same
// streams exactly: once the router's buffers and the graph's per-graph
// caches (distance-oracle rows, cone rows) are warm, a pass allocates
// one path per path FindPath returns and nothing else. The first pass
// warms them; a first use that allocates is cached per graph, so it is
// not counted.
func TestRouterStreamAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	for _, tc := range queryStreams {
		s := tc.build()
		if paths := s.run(); paths != tc.paths {
			t.Fatalf("%s: %d queries return %d non-empty paths, want %d", tc.name, len(s.queries), paths, tc.paths)
		}
		if got := testing.AllocsPerRun(2, func() { s.run() }); got != float64(tc.paths) {
			t.Errorf("%s: %d queries allocate %v times, want %d (one per returned path)",
				tc.name, len(s.queries), got, tc.paths)
		}
	}
}

// subRouterStream replays BenchmarkSubRouter: strict routing over an
// empty 8x8r4 fabric at II 4 between random PEs at latencies 1-10.
func subRouterStream() *queryStream {
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	r := NewRouter(g, DefaultMaxLat(8, 8, 4))
	return &queryStream{r, StrictCost(st, 1), Flat(1), randomQueries(g, rand.New(rand.NewSource(1)), 2000)}
}

// congestedStream replays BenchmarkFindPathCongested: the same queries
// over a fabric whose routing resources are half held by a foreign net.
func congestedStream() *queryStream {
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
	return &queryStream{r, StrictCost(st, 1), Flat(1), randomQueries(g, rng, 2000)}
}

func randomQueries(g *mrrg.Graph, rng *rand.Rand, n int) []streamQuery {
	qs := make([]streamQuery, n)
	for i := range qs {
		srcPE, dstPE := rng.Intn(64), rng.Intn(64)
		lat := 1 + rng.Intn(10)
		qs[i] = streamQuery{g.FU(srcPE, 0), g.FU(dstPE, lat%4), lat}
	}
	return qs
}

// sharedStream replays BenchmarkFindPathShared: strict routing at the
// own-net sharing floor for a net holding three committed routes, on a
// 4x4r2 fabric at II 4 with a third of its routing resources held by a
// foreign net, cycling twice through 256 fixed queries after one warm
// pass over them.
func sharedStream() *queryStream {
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
	queries := make([]streamQuery, 256)
	for i := range queries {
		lat := 4 + rng.Intn(8)
		queries[i] = streamQuery{src, g.FU(rng.Intn(16), lat), lat}
	}
	s := &queryStream{r, cost, floor, queries}
	s.run()
	s.queries = append(queries, queries...)
	return s
}
