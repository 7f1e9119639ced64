// Command rewire-serve is the online mapping daemon: it serves CGRA
// mapping requests over HTTP with a bounded worker pool, and exposes
// the telemetry a production deployment scrapes and alerts on —
// Prometheus metrics (request rates, latency and mapping-quality
// distributions, plus every offline trace counter folded per run),
// structured per-request logs tied to run IDs, pprof endpoints, and a
// flight recorder holding the last N runs with downloadable Chrome
// traces.
//
// Usage:
//
//	rewire-serve -addr :8080 -workers 8 -log-format json
//
// The endpoints are listed in the table under "Online telemetry" in
// docs/OBSERVABILITY.md. POST /map, /map/batch and /map/submit share one
// job path: each turns its requests into jobs that take a worker slot,
// run, and are counted and recorded the same way.
//
// Repeated identical requests are served from a result-level mapping
// cache (-result-cache, on by default): a warm hit skips placement and
// routing entirely and the response carries "cached": true.
package main

import (
	"flag"
	"fmt"
	"net/http"
	"os"
	"runtime"
	"time"

	"rewire/internal/buildinfo"
	"rewire/internal/ledger"
	"rewire/internal/obs"
)

func main() {
	var (
		addr      = flag.String("addr", ":8080", "listen address")
		workers   = flag.Int("workers", runtime.NumCPU(), "concurrent mapping runs (further requests queue)")
		timeout   = flag.Duration("request-timeout", 60*time.Second, "per-request wall-clock bound, queue wait included")
		maxTPI    = flag.Duration("max-time-per-ii", 10*time.Second, "largest per-II budget a request may ask for")
		maxII     = flag.Int("max-ii", 32, "largest II bound a request may ask for")
		flight    = flag.Int("flight", 64, "flight recorder size (last N runs kept with traces)")
		cacheCap  = flag.Int("result-cache", 512, "result-cache capacity in finished mappings (0 disables; repeated identical requests skip the compile)")
		maxBatch  = flag.Int("max-batch", 64, "largest number of entries one POST /map/batch may carry")
		jobTO     = flag.Duration("job-timeout", 5*time.Minute, "async job wall-clock bound (queue wait included)")
		jobCap    = flag.Int("job-capacity", 256, "async job table size (running plus retained completed jobs)")
		ledgerDir = flag.String("ledger", "", "append one QoR ledger entry per retired run to <dir>/ledger.jsonl (default: in-memory only; see docs/OBSERVABILITY.md)")
		logLevel  = flag.String("log-level", "info", "log level: debug, info, warn, error")
		logFormat = flag.String("log-format", "text", "log format: text or json")
		version   = flag.Bool("version", false, "print the build identity and exit")
	)
	flag.Parse()

	if *version {
		fmt.Println(buildinfo.Get().String())
		return
	}

	lg, err := obs.Setup(os.Stderr, *logLevel, *logFormat)
	if err != nil {
		obs.Default().Error("bad logging flags", "err", err)
		os.Exit(2)
	}

	var led *ledger.Ledger
	if *ledgerDir != "" {
		led, err = ledger.Open(*ledgerDir)
		if err != nil {
			lg.Error("cannot open QoR ledger", "dir", *ledgerDir, "err", err)
			os.Exit(1)
		}
		defer led.Close()
	}

	s := newServer(serverConfig{
		Workers:        *workers,
		RequestTimeout: *timeout,
		MaxTimePerII:   *maxTPI,
		MaxII:          *maxII,
		FlightSize:     *flight,
		CacheSize:      *cacheCap,
		MaxBatch:       *maxBatch,
		JobTimeout:     *jobTO,
		JobCapacity:    *jobCap,
		Ledger:         led,
	}, lg)
	go s.warmup()

	lg.Info("rewire-serve listening", "addr", *addr, "workers", s.cfg.Workers,
		"request_timeout", timeout.String(), "flight_size", s.cfg.FlightSize)
	if err := http.ListenAndServe(*addr, s.mux()); err != nil {
		lg.Error("server exited", "err", err)
		os.Exit(1)
	}
}
