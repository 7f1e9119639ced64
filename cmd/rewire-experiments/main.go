// Command rewire-experiments regenerates the paper's evaluation: the
// Figure 5 mapping-quality comparison, the Figure 6 compilation-time
// comparison, Table I's remapping-iteration counts, and the §V summary
// statistics, over the 47 benchmark-architecture combinations.
//
// Usage:
//
//	rewire-experiments                  # everything (fig5+fig6+table1+summary)
//	rewire-experiments -fig5            # just the mapping-quality table
//	rewire-experiments -time-per-ii 5s  # larger per-II budgets (closer to the paper's 1h)
//	rewire-experiments -j 8             # fan the runs across 8 workers (-j 1 = serial)
//
// Runs are deterministic in -seed at every -j: each worker builds its
// own mapping state and results are collected in canonical order, so
// only the wall-clock changes with the parallelism.
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"time"

	"rewire/internal/buildinfo"
	"rewire/internal/eval"
	"rewire/internal/ledger"
	"rewire/internal/obs"
	"rewire/internal/portfolio"
	"rewire/internal/resultcache"
)

// log writes structured diagnostics to stderr; the result tables on
// stdout are untouched. Replaced in main once the flags are parsed.
var log = obs.Default()

func main() {
	var (
		fig5     = flag.Bool("fig5", false, "print only Figure 5 (mapping quality)")
		fig6     = flag.Bool("fig6", false, "print only Figure 6 (compilation time)")
		table1   = flag.Bool("table1", false, "print only Table I (remapping iterations)")
		summary  = flag.Bool("summary", false, "print only the summary statistics")
		scaling  = flag.Bool("scaling", false, "run the fabric-size scaling study instead of the main evaluation")
		seed     = flag.Int64("seed", 1, "random seed for all mappers")
		budget   = flag.Duration("time-per-ii", 2*time.Second, "per-II wall-clock budget per mapper")
		jobs     = flag.Int("j", runtime.NumCPU(), "concurrent mapper runs (1 = serial)")
		sweepJ   = flag.Int("sweep-j", 1, "speculative II-sweep window per run (1 = serial; IIs and mappings are bit-identical at any width)")
		mapperF  = flag.String("mapper", "", "comma-separated mapper filter: rewire, pathfinder, sa, portfolio (default: the paper's three)")
		pfolioB  = flag.String("portfolio-backends", "", "backend subset raced by portfolio runs (default: every registered backend)")
		pfolioJ  = flag.Int("portfolio-j", 0, "portfolio lane window (0 = one lane per backend, 1 = serial priority order; committed results are width-independent)")
		cacheCap = flag.Int("result-cache", 0, "result-cache capacity in finished mappings (0 disables; overlapping combos across studies are served from cache, results unchanged)")
		quiet    = flag.Bool("quiet", false, "suppress per-run progress lines")
		version  = flag.Bool("version", false, "print the build identity and exit")

		ledgerDir  = flag.String("ledger", "", "append one QoR ledger entry per run to <dir>/ledger.jsonl (the canonical quality record; see docs/OBSERVABILITY.md)")
		kernelsCSV = flag.String("kernels", "", "comma-separated kernel filter (default: all 47 combos)")
		archsCSV   = flag.String("archs", "", "comma-separated arch-name filter, e.g. 4x4r4 (default: all)")

		jsonOut    = flag.String("json", "", "write the aggregated result set as JSON to this path")
		traceDir   = flag.String("trace-dir", "", "write one Chrome trace + JSONL trace per mapper run into this directory")
		reportDir  = flag.String("report", "", "write one post-mortem report (.report.json + .report.html) per mapper run into this directory")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile of the whole evaluation to this path (go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path (go tool pprof)")

		logLevel  = flag.String("log-level", "info", "stderr log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "stderr log format: text or json")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}

	lg, lerr := obs.Setup(os.Stderr, *logLevel, *logFormat)
	if lerr != nil {
		log.Error("bad logging flags", "err", lerr)
		os.Exit(2)
	}
	log = lg

	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatal(err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatal(err)
		}
		defer pprof.StopCPUProfile()
	}
	defer writeMemProfile(*memProfile)

	mappers, merr := parseMappers(*mapperF)
	if merr != nil {
		log.Error("bad -mapper filter", "err", merr)
		os.Exit(2)
	}
	cfg := eval.Config{
		Seed:                 *seed,
		TimePerII:            *budget,
		Jobs:                 *jobs,
		SweepParallelism:     *sweepJ,
		Mappers:              mappers,
		PortfolioBackends:    portfolio.ParseBackends(*pfolioB),
		PortfolioParallelism: *pfolioJ,
		Verbose:              !*quiet,
		Out:                  os.Stdout,
		TraceDir:             *traceDir,
		ReportDir:            *reportDir,
		Logger:               log,
	}
	if _, err := portfolio.Backends(cfg.PortfolioBackends); err != nil {
		log.Error("bad -portfolio-backends", "err", err)
		os.Exit(2)
	}
	if *cacheCap > 0 {
		cfg.Cache = resultcache.New(*cacheCap)
	}
	if *ledgerDir != "" {
		led, err := ledger.Open(*ledgerDir)
		if err != nil {
			fatal(err)
		}
		defer led.Close()
		cfg.Ledger = led
	}
	if *scaling {
		eval.Scaling(cfg, os.Stdout)
		return
	}
	combos := filterCombos(eval.Combos(), *kernelsCSV, *archsCSV)
	if len(combos) == 0 {
		log.Error("no combos match the -kernels/-archs filter")
		os.Exit(2)
	}
	// The -j 1 banner matches the historical serial harness byte for
	// byte; the worker count is only announced when there is a pool.
	workers := ""
	if *jobs > 1 {
		workers = fmt.Sprintf(", %d workers", *jobs)
	}
	nMappers := len(eval.Mappers)
	if len(mappers) > 0 {
		nMappers = len(mappers)
	}
	fmt.Printf("running %d combos x %d mappers (budget %s per II, seed %d%s)...\n\n",
		len(combos), nMappers, *budget, *seed, workers)
	results := eval.RunCombos(cfg, combos)
	fmt.Println()

	if *jsonOut != "" {
		f, err := os.Create(*jsonOut)
		if err != nil {
			fatal(err)
		}
		if err := results.WriteJSON(f); err != nil {
			fatal(err)
		}
		if err := f.Close(); err != nil {
			fatal(err)
		}
		fmt.Printf("results written to %s\n\n", *jsonOut)
	}

	specific := *fig5 || *fig6 || *table1 || *summary
	if !specific || *fig5 {
		results.Figure5(os.Stdout)
	}
	if !specific || *fig6 {
		results.Figure6(os.Stdout)
	}
	if !specific || *table1 {
		results.Table1(os.Stdout)
	}
	if !specific || *summary {
		results.Summary(os.Stdout)
	}
}

// parseMappers resolves the -mapper CSV, any alias accepted, to the
// display names eval reports ("pf" is "PF*"). Empty means the default
// set (the paper's three).
func parseMappers(csv string) ([]string, error) {
	var out []string
	for _, f := range portfolio.ParseBackends(csv) {
		p, err := portfolio.Plan(f, nil, 0, 0)
		if err != nil {
			return nil, err
		}
		if !slices.Contains(out, p.Stat) {
			out = append(out, p.Stat)
		}
	}
	return out, nil
}

// filterCombos keeps the combos whose kernel / arch name appear in the
// respective CSV filter; an empty filter keeps everything. The small CI
// qor-gate matrix is carved out this way.
func filterCombos(combos []eval.Combo, kernelsCSV, archsCSV string) []eval.Combo {
	csvSet := func(s string) map[string]bool {
		if s == "" {
			return nil
		}
		set := map[string]bool{}
		for _, f := range strings.Split(s, ",") {
			if f = strings.TrimSpace(f); f != "" {
				set[f] = true
			}
		}
		return set
	}
	wantK, wantA := csvSet(kernelsCSV), csvSet(archsCSV)
	if wantK == nil && wantA == nil {
		return combos
	}
	var out []eval.Combo
	for _, cb := range combos {
		if (wantK == nil || wantK[cb.Kernel]) && (wantA == nil || wantA[cb.Arch.Name]) {
			out = append(out, cb)
		}
	}
	return out
}

func fatal(err error) {
	log.Error("fatal", "err", err)
	os.Exit(1)
}

// writeMemProfile snapshots the heap after the evaluation (post-GC, so
// the profile shows retained memory, not garbage).
func writeMemProfile(path string) {
	if path == "" {
		return
	}
	f, err := os.Create(path)
	if err != nil {
		fatal(err)
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		fatal(err)
	}
	if err := f.Close(); err != nil {
		fatal(err)
	}
}
