// Command rewire-map maps one benchmark kernel onto one CGRA
// configuration with a chosen mapper and prints the resulting modulo
// schedule, route table and fabric utilisation.
//
// Usage:
//
//	rewire-map -kernel fft -arch 4x4r4 -mapper rewire -seed 1
//	rewire-map -list
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"time"

	"rewire"
	"rewire/internal/arch"
	"rewire/internal/buildinfo"
	"rewire/internal/obs"
	"rewire/internal/portfolio"
)

// log writes structured diagnostics to stderr; stdout stays reserved
// for the mapping report. Replaced in main once the flags are parsed.
var log = obs.Default()

func main() {
	var (
		kernel   = flag.String("kernel", "fft", "benchmark kernel name (see -list)")
		archStr  = flag.String("arch", "4x4r4", "architecture: 4x4rN, 8x8rN, or RxCrN")
		archFile = flag.String("arch-file", "", "path to an ADL architecture spec (overrides -arch)")
		mapper   = flag.String("mapper", "rewire", "mapper: rewire, pathfinder (pf), sa, or portfolio (races the backends, lowest II wins)")
		seed     = flag.Int64("seed", 1, "random seed (runs are reproducible per seed)")
		budget   = flag.Duration("time-per-ii", 5*time.Second, "wall-clock budget per attempted II")
		maxII    = flag.Int("max-ii", 32, "largest II to attempt")
		sweepJ   = flag.Int("sweep-j", 0, "speculative II-sweep window: II attempts run concurrently (0 = one per core, or serial when -trace or -trace-jsonl is set; 1 = serial; results are bit-identical at any width)")
		pfolioB  = flag.String("portfolio-backends", "", "comma-separated backend subset for -mapper portfolio (default: every registered backend, rewire,pathfinder,sa)")
		pfolioJ  = flag.Int("portfolio-j", 0, "portfolio lane window: racing lanes run concurrently (0 = one lane per backend, 1 = serial priority order; the committed result is bit-identical at any width)")
		cacheCap = flag.Int("result-cache", 0, "result-cache capacity in finished mappings (0 disables; a warm hit skips the compile entirely)")
		routes   = flag.Bool("routes", false, "also print the per-edge route table")
		energy   = flag.Bool("energy", false, "also print the activity/energy estimate")
		simIter  = flag.Int("simulate", 0, "functionally verify the mapping over N simulated iterations")
		saveTo   = flag.String("save", "", "write the mapping as a JSON bundle to this path")
		list     = flag.Bool("list", false, "list bundled kernels and exit")
		version  = flag.Bool("version", false, "print the build identity and exit")

		traceOut   = flag.String("trace", "", "write a Chrome trace_event file of the mapping run to this path (open in Perfetto / chrome://tracing)")
		traceJSONL = flag.String("trace-jsonl", "", "write the structured JSONL trace (spans, counters, histograms) to this path")
		reportDir  = flag.String("report", "", "write the mapping post-mortem into this directory: report.json, report.html, report.txt and the progress-event log events.jsonl")
		cpuProfile = flag.String("cpuprofile", "", "write a CPU profile to this path (inspect with: go tool pprof)")
		memProfile = flag.String("memprofile", "", "write a heap profile to this path (inspect with: go tool pprof)")

		logLevel  = flag.String("log-level", "info", "stderr log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "stderr log format: text or json")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}

	lg, lerr := rewire.NewLogger(os.Stderr, *logLevel, *logFormat)
	if lerr != nil {
		log.Error("bad logging flags", "err", lerr)
		os.Exit(2)
	}
	log = lg

	if *list {
		for _, n := range rewire.Kernels() {
			g, err := rewire.LoadKernel(n)
			if err != nil {
				fatalf("load %s: %v", n, err)
			}
			fmt.Printf("%-12s %s\n", n, g.Stats())
		}
		return
	}

	var (
		cgra *rewire.CGRA
		err  error
	)
	if *archFile != "" {
		text, rerr := os.ReadFile(*archFile)
		if rerr != nil {
			fatalf("%v", rerr)
		}
		cgra, err = rewire.ParseArch(string(text))
	} else {
		cgra, err = arch.ParseName(*archStr)
	}
	if err != nil {
		fatalf("%v", err)
	}
	g, err := rewire.LoadKernel(*kernel)
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Printf("kernel: %s\narch:   %s\nMII:    %d\n\n", g.Stats(), cgra, rewire.MII(g, cgra))

	var tr *rewire.Tracer
	if *traceOut != "" || *traceJSONL != "" {
		tr = rewire.NewTracer()
	}
	if *cpuProfile != "" {
		f, err := os.Create(*cpuProfile)
		if err != nil {
			fatalf("cpuprofile: %v", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			fatalf("cpuprofile: %v", err)
		}
	}
	var cache *rewire.ResultCache
	if *cacheCap > 0 {
		cache = rewire.NewResultCache(*cacheCap)
	}
	var (
		diag *rewire.DiagCollector
		bus  *rewire.ProgressBus
	)
	if *reportDir != "" {
		diag = rewire.NewDiagCollector()
		bus = rewire.NewProgressBus(0)
	}
	m, res, err := rewire.Map(g, cgra, rewire.Options{
		Mapper:               rewire.MapperName(*mapper),
		Seed:                 *seed,
		TimePerII:            *budget,
		MaxII:                *maxII,
		SweepParallelism:     *sweepJ,
		PortfolioBackends:    portfolio.ParseBackends(*pfolioB),
		PortfolioParallelism: *pfolioJ,
		Tracer:               tr,
		Logger:               log,
		Cache:                cache,
		Diag:                 diag,
		Progress:             bus,
	})
	// Profiles and traces are written before the success check: a failed
	// mapping run is exactly the one worth profiling.
	if *cpuProfile != "" {
		pprof.StopCPUProfile()
	}
	if *memProfile != "" {
		f, ferr := os.Create(*memProfile)
		if ferr != nil {
			fatalf("memprofile: %v", ferr)
		}
		runtime.GC()
		if ferr := pprof.WriteHeapProfile(f); ferr != nil {
			fatalf("memprofile: %v", ferr)
		}
		f.Close()
	}
	writeTrace(tr, *traceOut, *traceJSONL)
	writeReport(diag, bus, *reportDir)
	fmt.Println(res)
	if res.Portfolio != nil {
		for _, b := range res.Portfolio.PerBackend {
			fmt.Printf("  lane %-10s launched=%d won=%d cancelled=%d wasted=%dms\n",
				b.Backend, b.Launched, b.Won, b.Cancelled, b.WastedMS)
		}
	}
	if err != nil {
		fatalf("%v", err)
	}
	fmt.Println()
	fmt.Print(rewire.Render(m))
	util, err := rewire.RenderUtilisation(m)
	if err != nil {
		fatalf("utilisation: %v", err)
	}
	fmt.Println()
	fmt.Print(util)
	if *routes {
		rt, err := rewire.RenderRoutes(m)
		if err != nil {
			fatalf("routes: %v", err)
		}
		fmt.Println()
		fmt.Print(rt)
	}
	if *energy {
		rep, err := rewire.EstimateEnergy(m)
		if err != nil {
			fatalf("energy: %v", err)
		}
		fmt.Println()
		fmt.Print(rep)
	}
	if *simIter > 0 {
		if err := rewire.VerifyExecution(m, *simIter); err != nil {
			fatalf("simulation: %v", err)
		}
		fmt.Printf("\nsimulated %d iterations: store streams match the reference interpreter\n", *simIter)
	}
	if *saveTo != "" {
		data, err := rewire.SaveMapping(m)
		if err != nil {
			fatalf("save: %v", err)
		}
		if err := os.WriteFile(*saveTo, data, 0o644); err != nil {
			fatalf("save: %v", err)
		}
		fmt.Printf("\nmapping bundle written to %s\n", *saveTo)
	}
}

// writeTrace exports the run's tracer in the requested formats.
func writeTrace(tr *rewire.Tracer, chromePath, jsonlPath string) {
	if tr == nil {
		return
	}
	if chromePath != "" {
		f, err := os.Create(chromePath)
		if err != nil {
			fatalf("trace: %v", err)
		}
		if err := tr.WriteChromeTrace(f); err != nil {
			fatalf("trace: %v", err)
		}
		f.Close()
	}
	if jsonlPath != "" {
		f, err := os.Create(jsonlPath)
		if err != nil {
			fatalf("trace-jsonl: %v", err)
		}
		if err := tr.WriteJSONL(f); err != nil {
			fatalf("trace-jsonl: %v", err)
		}
		f.Close()
	}
}

// writeReport renders the run's post-mortem into dir. Written before
// the success check, like the traces: a failed mapping run is exactly
// the one whose report matters.
func writeReport(diag *rewire.DiagCollector, bus *rewire.ProgressBus, dir string) {
	if diag == nil {
		return
	}
	bus.Close()
	if err := os.MkdirAll(dir, 0o755); err != nil {
		fatalf("report: %v", err)
	}
	r := diag.Report()
	data, err := json.MarshalIndent(r, "", "  ")
	if err != nil {
		fatalf("report: %v", err)
	}
	for name, body := range map[string][]byte{
		"report.json": append(data, '\n'),
		"report.html": []byte(rewire.RenderReportHTML(r)),
		"report.txt":  []byte(rewire.RenderReport(r)),
	} {
		if err := os.WriteFile(filepath.Join(dir, name), body, 0o644); err != nil {
			fatalf("report: %v", err)
		}
	}
	f, err := os.Create(filepath.Join(dir, "events.jsonl"))
	if err != nil {
		fatalf("report: %v", err)
	}
	if err := bus.WriteJSONL(f); err != nil {
		fatalf("report: %v", err)
	}
	f.Close()
	fmt.Fprintf(os.Stderr, "post-mortem written to %s\n", dir)
}

func fatalf(format string, args ...interface{}) {
	log.Error(fmt.Sprintf(format, args...))
	os.Exit(1)
}
