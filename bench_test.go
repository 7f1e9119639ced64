// Benchmarks regenerating the paper's tables and micro-benchmarks of
// single functions. Each Benchmark* corresponds to one artifact:
//
//	BenchmarkFig5_*   — mapping quality (II) per architecture (Figure 5)
//	BenchmarkTable1   — single-node remapping iterations (Table I)
//	BenchmarkAblation — design-choice sweeps called out in DESIGN.md
//	BenchmarkSub*     — substrate micro-benchmarks (router, propagation,
//	                    MRRG construction, kernel lowering)
//
// Quality numbers are exposed via b.ReportMetric: sumII (total achieved
// II over the architecture's kernels, lower is better) and fails.
// Budgets are scaled down (300ms per II) so the full suite runs in
// minutes; cmd/rewire-experiments runs the same comparison with larger
// budgets and pretty tables. Compile time (Figure 6) is measured by
// rewire-experiments -fig6 and timed by the repository benchmark in
// bench/. None of these benchmarks is a gate: the exact allocation and
// work bounds are tests (TestAllocBounds here, TestRouterExpansionTotals
// and TestRouterStreamAllocs in internal/route, and the zero-allocation
// tests of the packages they measure).
package rewire

import (
	"context"
	"fmt"
	"math/rand"
	"strconv"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/core"
	"rewire/internal/eval"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/pathfinder"
	"rewire/internal/route"
	"rewire/internal/sa"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

const benchBudget = 300 * time.Millisecond

// benchCfg is the scaled-down evaluation config used by all benches.
func benchCfg() eval.Config {
	return eval.Config{Seed: 1, TimePerII: benchBudget, MaxII: 32}
}

// runFigure5 maps every kernel of one architecture with one mapper and
// reports aggregate quality metrics.
func runFigure5(b *testing.B, archName, mapper string) {
	var combos []eval.Combo
	for _, cb := range eval.Combos() {
		if cb.Arch.Name == archName {
			combos = append(combos, cb)
		}
	}
	if len(combos) == 0 {
		b.Fatalf("no combos for %s", archName)
	}
	for i := 0; i < b.N; i++ {
		sumII, fails := 0, 0
		for _, cb := range combos {
			_, res := eval.Run(mapper, cb, benchCfg())
			if res.Success {
				sumII += res.II
			} else {
				fails++
			}
		}
		b.ReportMetric(float64(sumII), "sumII")
		b.ReportMetric(float64(fails), "fails")
	}
}

func BenchmarkFig5_4x4r4_Rewire(b *testing.B) { runFigure5(b, "4x4r4", "Rewire") }
func BenchmarkFig5_4x4r4_PF(b *testing.B)     { runFigure5(b, "4x4r4", "PF*") }
func BenchmarkFig5_4x4r4_SA(b *testing.B)     { runFigure5(b, "4x4r4", "SA") }

func BenchmarkFig5_8x8r4_Rewire(b *testing.B) { runFigure5(b, "8x8r4", "Rewire") }
func BenchmarkFig5_8x8r4_PF(b *testing.B)     { runFigure5(b, "8x8r4", "PF*") }
func BenchmarkFig5_8x8r4_SA(b *testing.B)     { runFigure5(b, "8x8r4", "SA") }

func BenchmarkFig5_4x4r2_Rewire(b *testing.B) { runFigure5(b, "4x4r2", "Rewire") }
func BenchmarkFig5_4x4r2_PF(b *testing.B)     { runFigure5(b, "4x4r2", "PF*") }
func BenchmarkFig5_4x4r2_SA(b *testing.B)     { runFigure5(b, "4x4r2", "SA") }

func BenchmarkFig5_4x4r1_Rewire(b *testing.B) { runFigure5(b, "4x4r1", "Rewire") }
func BenchmarkFig5_4x4r1_PF(b *testing.B)     { runFigure5(b, "4x4r1", "PF*") }
func BenchmarkFig5_4x4r1_SA(b *testing.B)     { runFigure5(b, "4x4r1", "SA") }

// BenchmarkTable1 reports the average single-node remapping iterations of
// PF* and SA over the Table I benchmark set (4x4, one register per PE —
// the paper's hardest routing regime — and four registers).
func BenchmarkTable1(b *testing.B) {
	set := []string{"gramsch", "ludcmp", "lu", "gemver", "cholesky", "gesummv", "atax", "bicg(u)"}
	for i := 0; i < b.N; i++ {
		for _, regs := range []int{1, 4} {
			a := arch.New4x4(regs)
			pfIters, saIters := 0, 0
			for _, k := range set {
				g := kernels.MustLoad(k)
				_, pr := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: benchBudget}})
				_, sr := sa.Map(g, a, sa.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: benchBudget}})
				pfIters += pr.RemapIterations
				saIters += sr.RemapIterations
			}
			suffix := "r4"
			if regs == 1 {
				suffix = "r1"
			}
			b.ReportMetric(float64(pfIters)/float64(len(set)), "PFremaps_"+suffix)
			b.ReportMetric(float64(saIters)/float64(len(set)), "SAremaps_"+suffix)
		}
	}
}

// BenchmarkAblationClusterCap sweeps the cluster size cap (the paper
// fixes it at 15, §IV-B) on a mid-sized kernel set.
func BenchmarkAblationClusterCap(b *testing.B) {
	for _, cap := range []int{4, 8, 15, 30} {
		b.Run(bname("cap", cap), func(b *testing.B) {
			ablationRun(b, core.Options{ClusterCap: cap})
		})
	}
}

// BenchmarkAblationRounds sweeps the propagation-round multiplier (the
// paper uses x3 anchored / x5 unanchored, §IV-C).
func BenchmarkAblationRounds(b *testing.B) {
	for _, mult := range []int{1, 3, 6} {
		b.Run(bname("mult", mult), func(b *testing.B) {
			ablationRun(b, core.Options{RoundsAnchored: mult, RoundsUnanchored: mult + 2})
		})
	}
}

// BenchmarkAblationCandidates sweeps the per-node candidate list bound.
func BenchmarkAblationCandidates(b *testing.B) {
	for _, n := range []int{8, 32, 64, 128} {
		b.Run(bname("cands", n), func(b *testing.B) {
			ablationRun(b, core.Options{MaxCandidatesPerNode: n})
		})
	}
}

var ablationKernels = []string{"atax", "fft", "lu", "stencil2d", "viterbi"}

func ablationRun(b *testing.B, opt core.Options) {
	opt.Seed = 1
	opt.TimePerII = benchBudget
	a := arch.New4x4(4)
	for i := 0; i < b.N; i++ {
		sumII, fails := 0, 0
		for _, k := range ablationKernels {
			g := kernels.MustLoad(k)
			_, res := core.Map(g, a, opt)
			if res.Success {
				sumII += res.II
			} else {
				fails++
			}
		}
		b.ReportMetric(float64(sumII), "sumII")
		b.ReportMetric(float64(fails), "fails")
	}
}

func bname(k string, v int) string {
	return fmt.Sprintf("%s=%s", k, strconv.Itoa(v))
}

// --- substrate micro-benchmarks ---

// BenchmarkSubRouter measures the exact-latency router on an 8x8 fabric.
// expansions/op (priority-queue pops) is the hardware-independent work
// measure the A* heuristic is meant to shrink; TestRouterExpansionTotals
// (internal/route) pins it exactly on the same query stream.
func BenchmarkSubRouter(b *testing.B) {
	b.ReportAllocs()
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	r := route.NewRouter(g, route.DefaultMaxLat(8, 8, 4))
	cost := route.StrictCost(st, 1)
	rng := rand.New(rand.NewSource(1))
	b.ResetTimer()
	start := r.Expansions
	for i := 0; i < b.N; i++ {
		srcPE := rng.Intn(64)
		dstPE := rng.Intn(64)
		lat := 1 + rng.Intn(10)
		r.FindPath(g.FU(srcPE, 0), g.FU(dstPE, lat%4), lat, cost, route.Flat(1))
	}
	b.ReportMetric(float64(r.Expansions-start)/float64(b.N), "expansions/op")
}

// BenchmarkFindPathCongested measures the router on a fabric whose
// resources are half-occupied by foreign nets — the regime PathFinder
// negotiation and strict verification actually run in, where the cost
// surface is rugged and the A* plateau dive pays or doesn't.
func BenchmarkFindPathCongested(b *testing.B) {
	b.ReportAllocs()
	g := mrrg.New(arch.New8x8(4), 4)
	st := mrrg.NewState(g)
	rng := rand.New(rand.NewSource(2))
	for n := mrrg.Node(0); int(n) < g.NumNodes(); n++ {
		if g.Valid(n) && g.Kind(n) != mrrg.KindFU && rng.Intn(2) == 0 {
			if err := st.Reserve(n, 999, rng.Intn(4)); err != nil {
				b.Fatal(err)
			}
		}
	}
	r := route.NewRouter(g, route.DefaultMaxLat(8, 8, 4))
	cost := route.StrictCost(st, 1)
	b.ResetTimer()
	start := r.Expansions
	for i := 0; i < b.N; i++ {
		srcPE := rng.Intn(64)
		dstPE := rng.Intn(64)
		lat := 1 + rng.Intn(10)
		r.FindPath(g.FU(srcPE, 0), g.FU(dstPE, lat%4), lat, cost, route.Flat(1))
	}
	b.ReportMetric(float64(r.Expansions-start)/float64(b.N), "expansions/op")
}

// BenchmarkFindPathShared measures the router's hot case in Rewire's
// verification: strict routing of a net that already has committed
// routes, at the own-net sharing floor (StrictSharedCost) with the
// routes passed in the Floor, as route.StrictFloor does. Those searches
// are under a third of rewire-4x4's FindPath calls but most of its queue
// pops, because the 0.05 floor splits the search over several priority
// levels instead of one plateau; the routes let FindPath price the
// phases they cannot share at full cost in an A* pass and replay the
// search pruned by its optimal cost. The fabric is 4x4r2 at II 4
// with a third of the routing resources held by foreign nets; a fixed
// list of queries runs from the net's producer FU at latencies 4-11,
// once before the timer to warm the router's buffers. Each successful
// query allocates its returned path; TestFindPathSharedAllocs
// (internal/route) checks that nothing else allocates.
func BenchmarkFindPathShared(b *testing.B) {
	b.ReportAllocs()
	g := mrrg.New(arch.New4x4(2), 4)
	st := mrrg.NewState(g)
	rng := rand.New(rand.NewSource(3))
	for n := mrrg.Node(0); int(n) < g.NumNodes(); n++ {
		if g.Valid(n) && g.Kind(n) != mrrg.KindFU && rng.Intn(3) == 0 {
			if err := st.Reserve(n, 999, 1+rng.Intn(8)); err != nil {
				b.Fatal(err)
			}
		}
	}
	r := route.NewRouter(g, route.DefaultMaxLat(4, 4, 4))
	const net = mrrg.Net(1)
	src := g.FU(5, 0)
	cost := route.StrictCost(st, net)
	floor := route.Flat(1)
	for len(floor.Routes) < 3 {
		lat := 3 + rng.Intn(6)
		if p, ok := r.FindPath(src, g.FU(rng.Intn(16), lat), lat, cost, floor); ok {
			if err := st.ReservePath(p, net, 1); err != nil {
				b.Fatal(err)
			}
			floor = route.Floor{Min: route.StrictSharedCost, Routes: append(floor.Routes, p)}
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
	b.ResetTimer()
	start := r.Expansions
	for i := 0; i < b.N; i++ {
		q := queries[i%len(queries)]
		r.FindPath(src, q.dst, q.lat, cost, floor)
	}
	b.ReportMetric(float64(r.Expansions-start)/float64(b.N), "expansions/op")
}

// BenchmarkFindPathUnquantized measures the router's worst case: costs
// that no CostFn in this repository produces, uniformly random reals
// per resource, give nearly every queued entry its own priority, so the
// queue holds about as many levels as entries. One op is 200 searches
// on an empty 8x8r4 fabric at II 8, floor 0, between random PEs at
// random latencies up to the router's bound.
func BenchmarkFindPathUnquantized(b *testing.B) {
	b.ReportAllocs()
	g := mrrg.New(arch.New8x8(4), 8)
	r := route.NewRouter(g, route.DefaultMaxLat(8, 8, 8))
	rng := rand.New(rand.NewSource(4))
	spread := make([]float64, g.NumNodes())
	for i := range spread {
		spread[i] = 0.05 + 3*rng.Float64()
	}
	cost := func(n mrrg.Node, phase int) (float64, bool) { return spread[n], true }
	type query struct {
		src, dst mrrg.Node
		lat      int
	}
	queries := make([]query, 200)
	for i := range queries {
		lat := 1 + rng.Intn(r.MaxLat())
		queries[i] = query{g.FU(rng.Intn(64), 0), g.FU(rng.Intn(64), lat), lat}
	}
	b.ResetTimer()
	start := r.Expansions
	for i := 0; i < b.N; i++ {
		for _, q := range queries {
			r.FindPath(q.src, q.dst, q.lat, cost, route.Flat(0))
		}
	}
	b.ReportMetric(float64(r.Expansions-start)/float64(b.N), "expansions/op")
}

// BenchmarkMRRGCacheHit measures the shared-graph fast path: a session
// acquiring an already-built MRRG plus a pooled state. The absence of a
// Graph rebuild is what makes II sweeps and eval fleets cheap;
// TestSharedHitAllocatesNoGraph (internal/mrrg) pins the same body at
// zero allocations.
func BenchmarkMRRGCacheHit(b *testing.B) {
	b.ReportAllocs()
	a := arch.New8x8(4)
	mrrg.Shared(a, 4) // warm the cache
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := mrrg.Shared(a, 4)
		st := mrrg.NewState(g)
		st.Recycle()
	}
}

// BenchmarkResultCacheHit measures the result-cache fast path: serving
// an already-compiled mapping is one canonical-fingerprint build, one
// map lookup and one deep copy. ns/op here against the cold compile
// (reported once as the cold_ns metric) is the speedup a warm cache
// delivers; the acceptance bar is three orders of magnitude.
func BenchmarkResultCacheHit(b *testing.B) {
	coldStart := time.Now()
	hit := resultCacheHit(b)
	cold := time.Since(coldStart)
	benchOps(b, hit)
	b.StopTimer()
	b.ReportMetric(float64(cold.Nanoseconds()), "cold_ns")
}

// resultCacheHit compiles fft on 4x4r4 into a fresh result cache and
// returns a warm call, which must hit.
func resultCacheHit(tb testing.TB) func() {
	g := kernels.MustLoad("fft")
	a := arch.New4x4(4)
	opt := Options{Seed: 1, TimePerII: 2 * time.Second, Cache: NewResultCache(8)}
	if m, _, out, err := MapCached(context.Background(), g, a, opt); err != nil || m == nil || out.Hit {
		tb.Fatalf("cold compile failed: %v (outcome %+v)", err, out)
	}
	return func() {
		if m, _, out, err := MapCached(context.Background(), g, a, opt); err != nil || m == nil || !out.Hit {
			tb.Fatalf("warm call missed: %v (outcome %+v)", err, out)
		}
	}
}

// benchOps reports allocations and times body b.N times.
func benchOps(b *testing.B, body func()) {
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		body()
	}
}

// BenchmarkSubMRRGBuild measures modulo-resource-graph construction.
func BenchmarkSubMRRGBuild(b *testing.B) { benchOps(b, mrrgBuild(b)) }

func mrrgBuild(testing.TB) func() {
	a := arch.New8x8(4)
	return func() { mrrg.New(a, 6) }
}

// BenchmarkSubKernelLowering measures IR parse+unroll+lower for the whole
// registry.
func BenchmarkSubKernelLowering(b *testing.B) { benchOps(b, kernelLowering(b)) }

func kernelLowering(testing.TB) func() {
	names := kernels.Names()
	return func() {
		for _, n := range names {
			kernels.MustLoad(n)
		}
	}
}

// BenchmarkSubPFInitial measures the initial-mapping phase Rewire amends,
// one seed per iteration.
func BenchmarkSubPFInitial(b *testing.B) {
	build := pfInitial(b)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		build(int64(i))
	}
}

// pfInitial returns PF*'s initial mapping of gemver on 4x4r4 at its MII.
func pfInitial(testing.TB) func(seed int64) {
	g := kernels.MustLoad("gemver")
	a := arch.New4x4(4)
	mii := g.MII(a.NumPEs(), a.NumMemPEs(), a.BankPorts())
	return func(seed int64) {
		var eff stats.Effort
		pathfinder.BuildInitialTraced(context.Background(), mapping.New(g, a, mii), seed, &eff, nil, nil)
	}
}

// BenchmarkSubValidate measures the independent mapping validator.
func BenchmarkSubValidate(b *testing.B) { benchOps(b, validateMvt(b)) }

// validateMvt maps mvt on 4x4r4 with PF* and returns its validation.
func validateMvt(tb testing.TB) func() {
	g := kernels.MustLoad("mvt")
	a := arch.New4x4(4)
	m, res := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if m == nil {
		tb.Fatalf("setup mapping failed: %v", res)
	}
	return func() {
		if err := mapping.Validate(m); err != nil {
			tb.Fatal(err)
		}
	}
}

// BenchmarkSubRecMII measures the recurrence-bound computation.
func BenchmarkSubRecMII(b *testing.B) { benchOps(b, recMIICrc(b)) }

func recMIICrc(tb testing.TB) func() {
	g := kernels.MustLoad("crc")
	return func() {
		if g.RecMII() != 8 {
			tb.Fatal("wrong RecMII")
		}
	}
}

// BenchmarkAblationMechanisms toggles Rewire's two signature mechanisms:
// tuple-path reuse during verification ("reuse of wire information") and
// the execution-cycle constraint pruning of Algorithm 2.
func BenchmarkAblationMechanisms(b *testing.B) {
	b.Run("full", func(b *testing.B) {
		ablationRun(b, core.Options{})
	})
	b.Run("noTuplePaths", func(b *testing.B) {
		ablationRun(b, core.Options{DisableTuplePaths: true})
	})
	b.Run("noCyclePruning", func(b *testing.B) {
		ablationRun(b, core.Options{DisableCyclePruning: true})
	})
}
