package main

import (
	"fmt"
	"math/rand"
	"runtime"
	"time"

	"rewire"
)

// setupReps is how many times a compile run repeats its set-up, which
// takes well under a millisecond; setup_s is the median.
const setupReps = 21

// setupRefSamples is how many reference samples a compile run takes
// before its set-up and again after it, to scale setup_s.
const setupRefSamples = 5

// verifyIterations is how many loop iterations VerifyExecution simulates
// and compares against the reference interpreter.
const verifyIterations = 8

// recheckCompiles is how many requests a compile run compiles once more
// after its timed passes, untimed, drawn by the workload seed. A run of
// one pass would otherwise compile each request once and never check
// that its result repeats.
const recheckCompiles = 4

// compileReq is one compile of a pass.
type compileReq struct {
	combo
	mapper rewire.MapperName
	seed   int64
}

func (r compileReq) key() string {
	return fmt.Sprintf("%s/%s@%s#%d", r.mapper, r.kernel, r.arch, r.seed)
}

// digest is what must repeat exactly every time a request is compiled:
// the outcome, the II and the mapper's work counters. Work bounds, not
// the clock, end every attempt, so any difference is a determinism bug.
func digest(res rewire.Result) string {
	d := fmt.Sprintf("ok=%t ii=%d remaps=%d amend=%d tried=%d verify=%d/%d exp=%d",
		res.Success, res.II, res.RemapIterations, res.ClusterAmendments,
		res.PlacementsTried, res.VerifySuccesses, res.VerifyAttempts, res.RouterExpansions)
	if res.Portfolio != nil {
		d += " winner=" + res.Portfolio.WinnerBackend
	}
	return d
}

// compileInputs is what set-up produces: every kernel lowered and every
// fabric built.
type compileInputs struct {
	graphs map[string]*rewire.DFG
	archs  map[string]*rewire.CGRA
}

// setupCompile lowers every kernel and builds every fabric the workload
// uses, setupReps times, and returns the last inputs with each
// repetition's duration and the mean LoadKernel time.
func setupCompile(cs []combo) (in compileInputs, durs []float64, lowerUS float64, err error) {
	var lowerTotal time.Duration
	lowers := 0
	for rep := 0; rep < setupReps; rep++ {
		runtime.GC()
		t0 := time.Now()
		in = compileInputs{graphs: map[string]*rewire.DFG{}, archs: map[string]*rewire.CGRA{}}
		for _, c := range cs {
			if _, ok := in.graphs[c.kernel]; !ok {
				l0 := time.Now()
				g, err := rewire.LoadKernel(c.kernel)
				lowerTotal += time.Since(l0)
				lowers++
				if err != nil {
					return in, nil, 0, err
				}
				in.graphs[c.kernel] = g
			}
			if _, ok := in.archs[c.arch]; !ok {
				a, err := newArch(c.arch)
				if err != nil {
					return in, nil, 0, err
				}
				in.archs[c.arch] = a
			}
		}
		durs = append(durs, time.Since(t0).Seconds())
	}
	return in, durs, float64(lowerTotal.Nanoseconds()) / 1e3 / float64(lowers), nil
}

// layerTally accumulates per-layer numbers over the traced compiles.
type layerTally struct {
	compiles  int
	self      map[string]time.Duration
	counters  map[string]int64
	lanes     int
	cancelled int
	won       int
	wastedMS  int64
}

func (t *layerTally) add(tr *rewire.Tracer, res rewire.Result) {
	t.compiles++
	for name, d := range selfTimes(tracerSpans(tr)) {
		t.self[name] += d
	}
	for name, v := range tr.CounterTotals() {
		t.counters[name] += v
	}
	if p := res.Portfolio; p != nil {
		for _, b := range p.PerBackend {
			t.lanes += b.Launched
			t.cancelled += b.Cancelled
			t.won += b.Won
			t.wastedMS += b.WastedMS
		}
	}
}

// perCompile is a total over the traced compiles divided by their count.
func (t *layerTally) perCompile(v float64) float64 {
	if t.compiles == 0 {
		return 0
	}
	return v / float64(t.compiles)
}

// selfMS is the summed self time of the named spans, in ms per compile.
func (t *layerTally) selfMS(names ...string) float64 {
	var d time.Duration
	for _, n := range names {
		d += t.self[n]
	}
	return t.perCompile(float64(d.Nanoseconds()) / 1e6)
}

func (t *layerTally) count(name string) float64 {
	return t.perCompile(float64(t.counters[name]))
}

func ratio(num, den float64) float64 {
	if den == 0 {
		return 0
	}
	return num / den
}

// runCompile runs one compile workload.
func runCompile(w compileWorkload, seed int64, seconds int, traced bool) (*report, error) {
	rep := newReport()
	setupRef := calibrate(setupRefSamples)
	in, setupDurs, lowerUS, err := setupCompile(w.combos)
	if err != nil {
		return nil, fmt.Errorf("set-up: %w", err)
	}
	setupRef = append(setupRef, calibrate(setupRefSamples)...)

	var reqs []compileReq
	for _, c := range w.combos {
		for _, m := range w.mappers {
			for _, s := range w.mapperSeeds {
				reqs = append(reqs, compileReq{combo: c, mapper: m, seed: s})
			}
		}
	}

	passes := w.passes(seconds)
	if traced {
		// A traced run alternates traced and untraced passes, starting
		// traced so its layer numbers see the same cold caches as an
		// untraced run's first pass. The traced ones give the layer
		// numbers; the untraced ones the overhead and a digest check.
		passes = max(2, passes)
	}
	var (
		rng       = rand.New(rand.NewSource(seed))
		digests   = map[string]string{}
		latMS     []float64 // each compile's time, scaled by the reference around it
		iiRatios  []float64
		mapped    int
		passTime  = [2]float64{} // scaled compile ms of untraced, traced passes
		passCount = [2]int{}
		layers    = layerTally{self: map[string]time.Duration{}, counters: map[string]int64{}}
		refMS     = []float64{refSample()} // a reference sample before each compile and after the last
	)
	timedMap := func(rq compileReq, tr *rewire.Tracer) (*rewire.Mapping, rewire.Result, float64, error) {
		opt := rewire.Options{
			Mapper: rq.mapper, Seed: rq.seed, TimePerII: budgetPerII,
			PortfolioParallelism: w.parallelism, Tracer: tr,
		}
		g, a := in.graphs[rq.kernel], in.archs[rq.arch]
		// Start every compile from a collected heap, so none pays for the
		// garbage of the one before it.
		runtime.GC()
		t0 := time.Now()
		m, res, mapErr := rewire.Map(g, a, opt)
		return m, res, float64(time.Since(t0).Nanoseconds()) / 1e6, mapErr
	}
	check := func(rq compileReq, m *rewire.Mapping, res rewire.Result, mapErr error) {
		if err := checkMapping(m, res, mapErr); err != nil {
			rep.fail("%s: %v", rq.key(), err)
		}
		if err := checkRepeat(digests, rq.key(), res); err != nil {
			rep.fail("%v", err)
		}
	}
	recompile := func(rq compileReq) {
		rep.attempted++
		m, res, _, mapErr := timedMap(rq, nil)
		check(rq, m, res, mapErr)
	}
	for pass := 0; pass < passes; pass++ {
		tracedPass := traced && pass%2 == 0
		kind := 0
		if tracedPass {
			kind = 1
		}
		passCount[kind]++
		for _, i := range rng.Perm(len(reqs)) {
			rq := reqs[i]
			var tr *rewire.Tracer
			if tracedPass {
				tr = rewire.NewTracer()
			}
			m, res, lat, mapErr := timedMap(rq, tr)

			// The machine's speed changes within seconds, so each compile
			// is scaled by the reference samples taken just before and
			// after it.
			before := refMS[len(refMS)-1]
			refMS = append(refMS, refSample())
			lat *= 2 * refNominalMS / (before + refMS[len(refMS)-1])

			rep.attempted++
			passTime[kind] += lat
			latMS = append(latMS, lat)
			check(rq, m, res, mapErr)
			// A compile as long as one II's budget may have had an attempt
			// that the clock, not the work bounds, ended. Such a result
			// does not repeat, so compile it again for checkRepeat. The
			// Result has no per-II times, and on a slow machine a long II
			// sweep passes the budget without any one II nearing it.
			if res.Duration >= budgetPerII {
				recompile(rq)
			}
			if m != nil {
				mapped++
				iiRatios = append(iiRatios, float64(res.II)/float64(res.MII))
			}
			if tracedPass {
				layers.add(tr, res)
			}
		}
	}
	for _, i := range rng.Perm(len(reqs))[:recheckCompiles] {
		recompile(reqs[i])
	}
	rep.setDigest(digests)

	scale := rep.calibrated(refMS)
	if traced {
		setLayers(rep, &layers, lowerUS, scale)
		perTraced := passTime[1] / float64(passCount[1])
		perUntraced := passTime[0] / float64(passCount[0])
		rep.set("bench.trace_overhead_frac", perTraced/perUntraced-1, 0)
		return rep, nil
	}

	rep.set("setup_s", median(setupDurs)*speedScale(setupRef), len(setupDurs))
	n := len(latMS)
	rep.set("latency_ms_typical", iqm(latMS), n)
	rep.setTail("latency_ms_tail", latMS)
	rep.set("compile_ms_geomean", geomean(latMS), n)
	rep.set("ops_per_s", float64(n)/sum(latMS)*1e3, n)
	rep.set("ii_over_mii", geomean(iiRatios), len(iiRatios))
	rep.set("mapped_frac", float64(mapped)/float64(n), n)
	rep.set("peak_rss_mb", peakRSSMB(), 0)
	return rep, nil
}

// checkMapping applies the validity gate to one compile's outcome.
func checkMapping(m *rewire.Mapping, res rewire.Result, mapErr error) error {
	switch {
	case m == nil && res.Success:
		return fmt.Errorf("reports success without a mapping")
	case m != nil && mapErr != nil:
		return fmt.Errorf("returned a mapping and the error %v", mapErr)
	case m == nil:
		return nil
	}
	if err := rewire.Validate(m); err != nil {
		return fmt.Errorf("invalid mapping: %v", err)
	}
	if err := rewire.VerifyExecution(m, verifyIterations); err != nil {
		return fmt.Errorf("simulation disagrees with the interpreter: %v", err)
	}
	return nil
}

// checkRepeat records the digest of a request's first compile and
// reports a later compile of the same request whose digest differs.
func checkRepeat(digests map[string]string, key string, res rewire.Result) error {
	d := digest(res)
	if prev, ok := digests[key]; !ok {
		digests[key] = d
	} else if prev != d {
		return fmt.Errorf("%s: result changed between compiles: %s, then %s", key, prev, d)
	}
	return nil
}

// setLayers sets the per-layer metrics of a compile workload, its times
// multiplied by scale. The serve layers, the result cache and the
// open-loop generator do not run in it and read 0.
func setLayers(rep *report, t *layerTally, lowerUS, scale float64) {
	selfMS := func(names ...string) float64 { return t.selfMS(names...) * scale }
	rep.set("kernelir.lower_us", lowerUS*scale, 0)
	rep.set("mrrg.build_ms", selfMS("mrrg_build"), t.compiles)
	rep.set("pathfinder.initial_ms", selfMS("initial_mapping", "initial_placement"), t.compiles)
	rep.set("pathfinder.remap_loop_ms", selfMS("remap_loop"), t.compiles)
	rep.set("pathfinder.remaps", t.count("pf.remaps"), t.compiles)
	rep.set("core.cluster_amendments", t.count("cluster.amendments"), t.compiles)
	rep.set("core.propagate_ms", selfMS("propagate", "probe"), t.compiles)
	rep.set("core.intersect_ms", selfMS("intersect"), t.compiles)
	rep.set("core.placement_enum_ms", selfMS("placement_enum"), t.compiles)
	rep.set("core.verify_ms", selfMS("verify"), t.compiles)
	rep.set("core.placements_pruned", t.count("placements.pruned"), t.compiles)
	rep.set("core.verify_success_ratio", ratio(float64(t.counters["verify.successes"]), float64(t.counters["verify.attempts"])), t.compiles)
	rep.set("core.tuples", t.count("propagate.tuples"), t.compiles)
	// Propagation keeps "tuples" and suppresses "tuples_deduped"; the
	// ratio is the share of generated tuples the dedup rule suppressed.
	deduped := float64(t.counters["propagate.tuples_deduped"])
	rep.set("core.tuple_dedup_ratio", ratio(deduped, deduped+float64(t.counters["propagate.tuples"])), t.compiles)
	rep.set("core.pcandidates", t.count("intersect.pcandidates"), t.compiles)
	rep.set("map.placements_tried", t.count("placements.tried"), t.compiles)
	rep.set("route.expansions", t.count("route.expansions"), t.compiles)
	rep.set("route.findpath_calls", t.count("route.findpath.calls"), t.compiles)
	rep.set("route.findpath_found_ratio", ratio(float64(t.counters["route.findpath.found"]), float64(t.counters["route.findpath.calls"])), t.compiles)
	rep.set("sa.moves", t.count("sa.moves"), t.compiles)
	rep.set("sa.anneal_ms", selfMS("anneal"), t.compiles)
	rep.set("sa.route_all_ms", selfMS("route_all"), t.compiles)
	rep.set("sweep.attempts", t.count("sweep.attempts"), t.compiles)
	rep.set("portfolio.lanes", t.perCompile(float64(t.lanes)), t.compiles)
	rep.set("portfolio.cancelled", t.perCompile(float64(t.cancelled)), t.compiles)
	rep.set("portfolio.wasted_ms", t.perCompile(float64(t.wastedMS))*scale, t.compiles)
	rep.set("portfolio.win_ratio", ratio(float64(t.won), float64(t.lanes)), t.compiles)
	rep.set("map.uncovered_ms", selfMS("rewire.map", "pf.map", "sa.map", "portfolio.map"), t.compiles)
	for _, name := range []string{
		"resultcache.hits", "resultcache.misses", "serve.queue_wait_ms_mean", "serve.gc_pause_ms",
		"serve.compile_ms_p50", "serve.overhead_ms_p50", "serve.window_peak_rss_mb", "bench.gen_late_ms_tail",
	} {
		rep.set(name, 0, 0)
	}
}
