// Package eval is the experiment harness: it reruns the paper's full
// evaluation — Figure 5 (mapping quality as II across four CGRA
// configurations), Figure 6 (compilation time), Table I (single-node
// remapping iterations) and the §V summary statistics — over the three
// mappers (Rewire, PF*, SA) and prints the same rows/series the paper
// reports.
package eval

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/kernels"
	"rewire/internal/ledger"
	"rewire/internal/mapping"
	"rewire/internal/obs"
	"rewire/internal/portfolio"
	"rewire/internal/resultcache"
	"rewire/internal/stats"
	"rewire/internal/sweep"
	"rewire/internal/trace"
	"rewire/internal/viz"
)

// Config tunes an evaluation run.
type Config struct {
	// Seed makes the whole evaluation reproducible.
	Seed int64
	// TimePerII is each mapper's per-II budget (the paper allowed one
	// hour on a Xeon; the default here is 2s, which preserves the
	// comparison's shape at laptop scale).
	TimePerII time.Duration
	// MaxII caps the II sweep (default 32).
	MaxII int
	// Jobs is the number of mapper runs executed concurrently (default
	// GOMAXPROCS). Every run is deterministic in Config.Seed and owns its
	// MRRG, router and mapping state, so results are identical at every
	// job count; Jobs=1 reproduces the serial harness exactly. See
	// docs/CONCURRENCY.md.
	Jobs int
	// SweepParallelism is each run's speculative II-sweep window (0 or 1
	// is the serial sweep). Speculation changes wall-clock only, never the
	// committed IIs or mappings, so report tables are unaffected; combine
	// with Jobs thoughtfully — total concurrency is roughly Jobs times
	// this window. See docs/CONCURRENCY.md, "Layer 3".
	SweepParallelism int
	// Verbose streams one line per finished run to Out, in canonical
	// combo order regardless of Jobs.
	Verbose bool
	// Out receives progress and reports (required).
	Out io.Writer
	// Tracer, when non-nil, receives phase spans and counters from every
	// run dispatched through Run/RunDFG. A nil tracer costs one pointer
	// check per instrumentation point (see docs/OBSERVABILITY.md).
	Tracer *trace.Tracer
	// Logger, when non-nil, receives structured run-level log records
	// from the dispatched mappers and the harness itself. Errors the
	// harness must not lose (e.g. a failed trace export) fall back to a
	// default stderr logger when Logger is nil.
	Logger *obs.Logger
	// TraceDir, when non-empty, makes RunCombos give every mapper run its
	// own tracer and export it to <TraceDir>/<mapper>_<kernel>@<arch>
	// .trace.json (Chrome trace_event, Perfetto-loadable) and .jsonl
	// (structured spans/counters). Per-run tracers keep the counter
	// totals attributable to a single run even under Jobs>1.
	TraceDir string
	// ReportDir, when non-empty, makes RunCombos give every mapper run
	// its own diagnostics collector and export the post-mortem to
	// <ReportDir>/<mapper>_<kernel>@<arch>.report.json (schema
	// "rewire-report-v1") and .report.html. Per-run collectors keep the
	// attribution per run even under Jobs>1; failed runs are exactly the
	// ones whose reports matter.
	ReportDir string
	// Diag, when non-nil, is a shared diagnostics collector for runs
	// dispatched through Run/RunDFG directly (RunCombos uses per-run
	// collectors via ReportDir instead). nil disables collection.
	Diag *diag.Collector
	// Cache, when non-nil, routes every dispatched run through a
	// result-level mapping cache: repeated (kernel, arch, options)
	// requests — e.g. re-running a report after tweaking one arch, or a
	// sweep whose combos overlap — are served as deep copies instead of
	// recompiling. Results are bit-identical with or without the cache.
	// See docs/CACHING.md.
	Cache *resultcache.Cache
	// Ledger, when non-nil, receives one QoR entry per run dispatched
	// through Run/RunDFG: achieved II vs MII, compile time, cache
	// outcome and an attempt/contention summary, fingerprinted like the
	// result cache. When Diag is nil each run gets a private collector
	// so the summary is attributable to that run alone; a shared Diag
	// collector is used as-is and its summary is cumulative. nil
	// disables recording at the cost of one pointer check.
	Ledger *ledger.Ledger
	// Mappers, when non-empty, restricts RunCombos to the listed mappers
	// (display names, e.g. "Rewire" or "Portfolio"). Empty runs the
	// paper's three. Reports render missing runs as "-".
	Mappers []string
	// PortfolioBackends selects the backends raced by "Portfolio" runs
	// (canonicalised — priority order, aliases folded). Empty races the
	// full backend table. Part of the result fingerprint: a subset
	// explores a different schedule and may commit a different mapping.
	PortfolioBackends []string
	// PortfolioParallelism is the lane width of "Portfolio" runs (0 races
	// one lane per backend; 1 is the priority-ordered serial schedule).
	// Wall-clock only — the committed result is width-independent — so
	// it is exempt from the fingerprint. See docs/CONCURRENCY.md,
	// "Layer 4".
	PortfolioParallelism int
}

func (c Config) withDefaults() Config {
	if c.TimePerII == 0 {
		c.TimePerII = 2 * time.Second
	}
	if c.MaxII == 0 {
		c.MaxII = 32
	}
	if c.Jobs == 0 {
		c.Jobs = runtime.GOMAXPROCS(0)
	}
	return c
}

// Combo is one benchmark-architecture configuration of the evaluation.
type Combo struct {
	Kernel string
	Arch   *arch.CGRA
}

// Combos returns the 47 benchmark-architecture configurations evaluated
// in the paper (§V: "This evaluation uses 47 different DFG and
// architecture combinations"), distributed over the four CGRA presets.
// The 4x4 one-register list is exactly Table I's benchmark set; unrolled
// kernels concentrate on the 8x8 fabric, as in the paper.
func Combos() []Combo {
	lists := []struct {
		a       *arch.CGRA
		kernels []string
	}{
		{arch.New4x4(4), []string{
			"atax", "bicg(u)", "cholesky", "crc", "doitgen", "fft", "gemver",
			"gesummv", "gramsch", "lu", "ludcmp", "mvt", "stencil2d", "viterbi",
		}},
		{arch.New8x8(4), []string{
			"atax", "bicg(u)", "cholesky", "doitgen", "fft", "gemm", "gemver",
			"gesummv(u)", "gramsch", "lu", "ludcmp", "spmv", "susan",
		}},
		{arch.New4x4(2), []string{
			"atax", "cholesky", "doitgen", "fft", "gemm", "gesummv",
			"gramsch", "lu", "ludcmp", "mvt", "spmv", "viterbi",
		}},
		{arch.New4x4(1), []string{
			"gramsch", "ludcmp", "lu", "gemver", "cholesky", "gesummv",
			"atax", "bicg(u)",
		}},
	}
	var out []Combo
	for _, l := range lists {
		for _, k := range l.kernels {
			out = append(out, Combo{Kernel: k, Arch: l.a})
		}
	}
	return out
}

// Mappers in the order the paper reports them. The "Portfolio" racer is
// not part of the paper's comparison and runs only when selected via
// Config.Mappers.
var Mappers = []string{"Rewire", "PF*", "SA"}

// mappers resolves the Config.Mappers filter against the default set.
func (c Config) mappers() []string {
	if len(c.Mappers) > 0 {
		return c.Mappers
	}
	return Mappers
}

// Run maps one combo with one mapper under the config's budgets.
func Run(mapper string, cb Combo, cfg Config) (*mapping.Mapping, stats.Result) {
	sp := cfg.Tracer.StartSpan(nil, "dfg_load").WithStr("kernel", cb.Kernel)
	g := kernels.MustLoad(cb.Kernel)
	sp.WithInt("nodes", int64(g.NumNodes())).End()
	return RunDFG(mapper, g, cb.Arch, cfg)
}

// RunDFG maps an arbitrary DFG (not necessarily a registry kernel) on an
// architecture with one of the mappers (display name or any alias).
// With Config.Cache set the compile is content-addressed under the same
// key as the public API's for the same effective request.
func RunDFG(mapper string, g *dfg.Graph, a *arch.CGRA, cfg Config) (*mapping.Mapping, stats.Result) {
	cfg = cfg.withDefaults()
	// With a ledger but no caller-supplied collector, give the run a
	// private one so the recorded attempt/contention summary is
	// attributable to this run alone.
	if cfg.Ledger != nil && cfg.Diag == nil {
		cfg.Diag = diag.NewCollector()
	}
	req := portfolio.Request{
		Mapper: mapper, Backends: cfg.PortfolioBackends,
		SweepWidth: cfg.SweepParallelism, LaneWidth: cfg.PortfolioParallelism,
		RunOptions: sweep.RunOptions{Seed: cfg.Seed, MaxII: cfg.MaxII, TimePerII: cfg.TimePerII,
			Tracer: cfg.Tracer, Obs: diag.NewObserver(cfg.Logger, cfg.Diag, nil)},
	}
	fp, err := req.Fingerprint()
	if err != nil {
		panic("eval: " + err.Error())
	}
	m, res, out, _ := req.Map(context.Background(), g, a, cfg.Cache)
	if cfg.Ledger != nil {
		// Append failures are logged, never propagated: observability
		// must not fail a mapping that succeeded.
		e := ledger.NewEntry("eval", g, a, fp, res, out.Hit || out.Shared, cfg.Diag.Report())
		if err := cfg.Ledger.Append(e); err != nil {
			lg := cfg.Logger
			if lg == nil {
				lg = obs.Default()
			}
			lg.Error("ledger append failed", "kernel", g.Name, "arch", a.Name, "err", err)
		}
	}
	return m, res
}

// Results is the full evaluation outcome, indexed by mapper then combo
// key.
type Results struct {
	Combos  []Combo
	ByRun   map[string]stats.Result // key: mapper + "|" + comboKey
	Elapsed time.Duration
}

func comboKey(cb Combo) string { return cb.Kernel + "@" + cb.Arch.Name }

func runKey(mapper string, cb Combo) string { return mapper + "|" + comboKey(cb) }

// Get returns the recorded result for a mapper/combo pair.
func (r *Results) Get(mapper string, cb Combo) (stats.Result, bool) {
	res, ok := r.ByRun[runKey(mapper, cb)]
	return res, ok
}

// RunCombos executes every mapper on the given combos on a worker pool
// of Config.Jobs goroutines. Each run constructs its own mapping state
// (DFG, MRRG, router, RNG seeded from Config.Seed), so nothing mutable
// is shared between workers and the per-combo results are identical at
// every job count. Results are collected — and verbose progress lines
// printed — in the canonical (combo, mapper) order, so reports are
// byte-stable apart from measured durations.
func RunCombos(cfg Config, combos []Combo) *Results {
	cfg = cfg.withDefaults()
	mappers := cfg.mappers()
	out := &Results{Combos: combos, ByRun: make(map[string]stats.Result, len(combos)*len(mappers))}
	start := time.Now()

	type task struct {
		mapper string
		cb     Combo
	}
	tasks := make([]task, 0, len(combos)*len(mappers))
	for _, cb := range combos {
		for _, mapper := range mappers {
			tasks = append(tasks, task{mapper: mapper, cb: cb})
		}
	}
	results := make([]stats.Result, len(tasks))

	jobs := cfg.Jobs
	if jobs > len(tasks) {
		jobs = len(tasks)
	}
	if jobs <= 1 {
		// Serial path: identical to the historical harness, line for line.
		for i, t := range tasks {
			res := runOne(t.mapper, t.cb, cfg)
			results[i] = res
			if cfg.Verbose {
				fmt.Fprintln(cfg.Out, res)
			}
		}
	} else {
		type done struct {
			i   int
			res stats.Result
		}
		var next atomic.Int64
		ch := make(chan done, jobs)
		var wg sync.WaitGroup
		wg.Add(jobs)
		for w := 0; w < jobs; w++ {
			go func() {
				defer wg.Done()
				for {
					i := int(next.Add(1)) - 1
					if i >= len(tasks) {
						return
					}
					ch <- done{i: i, res: runOne(tasks[i].mapper, tasks[i].cb, cfg)}
				}
			}()
		}
		go func() {
			wg.Wait()
			close(ch)
		}()
		// In-order flush: a finished run's line prints only once every
		// earlier run has printed, keeping the stream deterministic.
		ready := make([]bool, len(tasks))
		flushed := 0
		for d := range ch {
			results[d.i] = d.res
			ready[d.i] = true
			for flushed < len(tasks) && ready[flushed] {
				if cfg.Verbose {
					fmt.Fprintln(cfg.Out, results[flushed])
				}
				flushed++
			}
		}
	}

	for i, t := range tasks {
		out.ByRun[runKey(t.mapper, t.cb)] = results[i]
	}
	out.Elapsed = time.Since(start)
	return out
}

// runOne executes one mapper run for RunCombos. With Config.TraceDir set
// the run gets a private tracer whose spans and counters are exported to
// a pair of files named after the run — one span tree, the mapping run
// alone, so the kernel loads outside it; otherwise the shared
// Config.Tracer (usually nil) is used as-is. Export failures are
// reported on stderr — never on Config.Out, which the in-order flush
// owns.
func runOne(mapper string, cb Combo, cfg Config) stats.Result {
	if cfg.TraceDir == "" && cfg.ReportDir == "" {
		_, res := Run(mapper, cb, cfg)
		return res
	}
	var tr *trace.Tracer
	if cfg.TraceDir != "" {
		tr = trace.New()
		cfg.Tracer = tr
	}
	var dc *diag.Collector
	if cfg.ReportDir != "" {
		dc = diag.NewCollector()
		cfg.Diag = dc
	}
	_, res := RunDFG(mapper, kernels.MustLoad(cb.Kernel), cb.Arch, cfg)
	// Surface export failures through the structured logger; with no
	// logger wired, fall back to the shared stderr default rather than
	// losing the error (Config.Out is owned by the in-order progress
	// flush and stays untouched).
	lg := cfg.Logger
	if lg == nil {
		lg = obs.Default()
	}
	if tr != nil {
		if err := exportTrace(tr, cfg.TraceDir, mapper, cb); err != nil {
			lg.Error("trace export failed", "mapper", mapper, "combo", comboKey(cb), "err", err)
		}
	}
	if dc != nil {
		if err := exportReport(dc, cfg.ReportDir, mapper, cb); err != nil {
			lg.Error("report export failed", "mapper", mapper, "combo", comboKey(cb), "err", err)
		}
	}
	return res
}

// exportReport writes one run's post-mortem as <base>.report.json and
// <base>.report.html under dir.
func exportReport(dc *diag.Collector, dir, mapper string, cb Combo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	r := dc.Report()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		return err
	}
	base := traceFileBase(mapper, cb)
	if err := os.WriteFile(filepath.Join(dir, base+".report.json"), append(data, '\n'), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, base+".report.html"), []byte(viz.RenderReportHTML(r)), 0o644)
}

// exportTrace writes one run's tracer as <base>.trace.json (Chrome
// trace_event) and <base>.jsonl (structured) under dir.
func exportTrace(tr *trace.Tracer, dir, mapper string, cb Combo) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	base := traceFileBase(mapper, cb)
	chrome, err := os.Create(filepath.Join(dir, base+".trace.json"))
	if err != nil {
		return err
	}
	if err := tr.WriteChromeTrace(chrome); err != nil {
		chrome.Close()
		return err
	}
	if err := chrome.Close(); err != nil {
		return err
	}
	jsonl, err := os.Create(filepath.Join(dir, base+".jsonl"))
	if err != nil {
		return err
	}
	if err := tr.WriteJSONL(jsonl); err != nil {
		jsonl.Close()
		return err
	}
	return jsonl.Close()
}

// traceFileBase derives a filesystem-safe file stem from a run's
// identity: "PF*" and "bicg(u)" carry characters that shells and some
// filesystems dislike, so anything outside [A-Za-z0-9@._-] becomes '_'.
func traceFileBase(mapper string, cb Combo) string {
	return sanitizeFilename(mapper + "_" + comboKey(cb))
}

func sanitizeFilename(s string) string {
	return strings.Map(func(r rune) rune {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '@', r == '.', r == '_', r == '-':
			return r
		default:
			return '_'
		}
	}, s)
}

// MIIOf computes the theoretical minimum II of a combo.
func MIIOf(cb Combo) int {
	g := kernels.MustLoad(cb.Kernel)
	return mapping.MII(g, cb.Arch)
}

// archOrder returns the distinct architectures in evaluation order.
func (r *Results) archOrder() []*arch.CGRA {
	var order []*arch.CGRA
	seen := map[string]bool{}
	for _, cb := range r.Combos {
		if !seen[cb.Arch.Name] {
			seen[cb.Arch.Name] = true
			order = append(order, cb.Arch)
		}
	}
	return order
}

// combosOn returns the combos for one architecture, kernel-sorted.
func (r *Results) combosOn(a *arch.CGRA) []Combo {
	var out []Combo
	for _, cb := range r.Combos {
		if cb.Arch.Name == a.Name {
			out = append(out, cb)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Kernel < out[j].Kernel })
	return out
}

// fmtII renders an II cell: the value, "-" for a failed mapping.
func fmtII(res stats.Result, ok bool) string {
	if !ok || !res.Success {
		return "-"
	}
	return fmt.Sprintf("%d", res.II)
}
