package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/http/pprof"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"rewire"
	"rewire/internal/arch"
	"rewire/internal/buildinfo"
	"rewire/internal/diag"
	"rewire/internal/dist"
	"rewire/internal/ledger"
	"rewire/internal/metrics"
	"rewire/internal/mrrg"
	"rewire/internal/obs"
	"rewire/internal/portfolio"
	"rewire/internal/resultcache"
	"rewire/internal/sweep"
	"rewire/internal/trace"
	"rewire/internal/viz"
)

// serverConfig sizes the daemon.
type serverConfig struct {
	// Workers bounds how many mapping runs execute concurrently; further
	// requests queue on the semaphore until a slot frees or their
	// timeout expires. The same fixed-pool discipline as the PR 1
	// evaluation harness (eval.RunCombos), applied to request traffic.
	Workers int
	// RequestTimeout bounds one request's total wall-clock, queue wait
	// included.
	RequestTimeout time.Duration
	// MaxTimePerII / MaxII cap what a request may ask for, so a single
	// client cannot park a worker on an hour-long sweep.
	MaxTimePerII time.Duration
	MaxII        int
	// FlightSize is the flight recorder's ring capacity.
	FlightSize int
	// CacheSize is the result cache's capacity in finished mappings.
	// Zero or negative disables the cache (the historical behaviour);
	// the rewire-serve binary defaults it to 512 via -result-cache.
	CacheSize int
	// MaxBatch caps how many entries one POST /map/batch may carry.
	MaxBatch int
	// JobTimeout bounds one async job's wall-clock (admission wait
	// included) — the async analogue of RequestTimeout.
	JobTimeout time.Duration
	// JobCapacity bounds the async job table (running plus retained
	// completed jobs); completed jobs are evicted oldest-first to make
	// room, and submissions are rejected only when every slot is still
	// running.
	JobCapacity int
	// Ledger, when non-nil, is the persistent QoR store every retired
	// run appends to (the -ledger flag opens a file-backed one). When
	// nil the server falls back to an in-memory ledger so GET /qor
	// always has the process's own history to aggregate.
	Ledger *ledger.Ledger
}

func (c serverConfig) withDefaults() serverConfig {
	if c.Workers <= 0 {
		c.Workers = runtime.GOMAXPROCS(0)
	}
	if c.RequestTimeout <= 0 {
		c.RequestTimeout = 60 * time.Second
	}
	if c.MaxTimePerII <= 0 {
		c.MaxTimePerII = 10 * time.Second
	}
	if c.MaxII <= 0 {
		c.MaxII = 32
	}
	if c.FlightSize <= 0 {
		c.FlightSize = 64
	}
	if c.MaxBatch <= 0 {
		c.MaxBatch = 64
	}
	if c.JobTimeout <= 0 {
		c.JobTimeout = 5 * time.Minute
	}
	if c.JobCapacity <= 0 {
		c.JobCapacity = 256
	}
	return c
}

// server is the mapping daemon: a bounded worker pool around the
// mapping engine, a metrics registry every run folds into, a flight
// recorder of recent runs, and the HTTP surface over all of it.
type server struct {
	cfg    serverConfig
	lg     *obs.Logger
	reg    *metrics.Registry
	sem    chan struct{} // worker-pool slots
	flight *flightRecorder
	cache  *rewire.ResultCache // nil when CacheSize <= 0
	jobs   *jobTable
	ready  atomic.Bool
	led    *ledger.Ledger
	proc   *metrics.ProcessCollector

	mReqs     *metrics.CounterVec // rewire_map_requests_total{mapper,outcome}
	mInflight *metrics.Gauge      // rewire_serve_inflight_requests
	mQueued   *metrics.Gauge      // rewire_serve_queued_requests
	mDur      *metrics.HistogramVec
	mQueueDur *metrics.Histogram
	mII       *metrics.HistogramVec
	mSlack    *metrics.HistogramVec
	mAmend    *metrics.HistogramVec

	// Batch and async surface counters.
	mBatchReqs    *metrics.Counter    // rewire_serve_batch_requests_total
	mBatchEntries *metrics.Counter    // rewire_serve_batch_entries_total
	mBatchDeduped *metrics.Counter    // rewire_serve_batch_deduped_total
	mJobs         *metrics.CounterVec // rewire_serve_async_jobs_total{state}

	// Portfolio lane accounting, labelled by backend.
	mPfLanes     *metrics.CounterVec // rewire_portfolio_lanes_total{backend}
	mPfWins      *metrics.CounterVec // rewire_portfolio_lane_wins_total{backend}
	mPfCancelled *metrics.CounterVec // rewire_portfolio_cancelled_total{backend}
	mPfWastedMS  *metrics.CounterVec // rewire_portfolio_wasted_ms_total{backend}

	// Diagnostics surface.
	mDiagReports  *metrics.CounterVec // rewire_diag_reports_total{outcome}
	mDiagContest  *metrics.Histogram  // rewire_diag_contested_resources_units
	mDiagProgress *metrics.Counter    // rewire_map_progress_events_total

	// Substrate and result cache counters, exported by diffing the
	// cumulative stats on each scrape (counters may only move forward,
	// so the handler adds deltas since the previous export).
	mMRRGHits   *metrics.Counter
	mMRRGMisses *metrics.Counter
	mDistHits   *metrics.Counter
	mDistMisses *metrics.Counter
	mRCHits     *metrics.Counter // rewire_resultcache_hits_total
	mRCMisses   *metrics.Counter // rewire_resultcache_misses_total
	mRCEvicts   *metrics.Counter // rewire_resultcache_evictions_total
	mRCShared   *metrics.Counter // rewire_resultcache_singleflight_shared_total
	cacheMu     sync.Mutex
	lastCache   [8]int64 // mrrg h/m, dist h/m, resultcache h/m/evict/shared
}

func newServer(cfg serverConfig, lg *obs.Logger) *server {
	cfg = cfg.withDefaults()
	reg := metrics.NewRegistry()
	s := &server{
		cfg:    cfg,
		lg:     lg,
		reg:    reg,
		sem:    make(chan struct{}, cfg.Workers),
		flight: newFlightRecorder(cfg.FlightSize),

		mReqs: reg.NewCounterVec("rewire_map_requests_total",
			"Mapping requests (POST /map, batch entries, async jobs) by mapper and outcome (ok, failed, invalid, timeout, overload, canceled).",
			"mapper", "outcome"),
		mInflight: reg.NewGauge("rewire_serve_inflight_requests",
			"Mapping runs currently executing on the worker pool."),
		mQueued: reg.NewGauge("rewire_serve_queued_requests",
			"Requests waiting for a worker-pool slot."),
		mDur: reg.NewHistogramVec("rewire_map_duration_seconds",
			"Wall-clock time of one mapping run.", metrics.DefBuckets, "mapper"),
		mQueueDur: reg.NewHistogram("rewire_serve_queue_wait_seconds",
			"Time requests spent waiting for a worker-pool slot.", metrics.DefBuckets),
		mII: reg.NewHistogramVec("rewire_map_ii_units",
			"Achieved initiation interval of successful mappings.", metrics.Pow2Buckets(8), "mapper"),
		mSlack: reg.NewHistogramVec("rewire_map_ii_slack_units",
			"Achieved II minus the theoretical MII (0 = optimal).", metrics.Pow2Buckets(6), "mapper"),
		mAmend: reg.NewHistogramVec("rewire_map_amendment_rounds_units",
			"Cluster amendment rounds per run (Rewire's remapping analogue).", metrics.Pow2Buckets(10), "mapper"),
		mMRRGHits: reg.NewCounter("rewire_mrrg_cache_hits_total",
			"Sessions served an already-built modulo routing resource graph."),
		mMRRGMisses: reg.NewCounter("rewire_mrrg_cache_misses_total",
			"Sessions that had to build a new modulo routing resource graph."),
		mDistHits: reg.NewCounter("rewire_dist_cache_hits_total",
			"Routers served a precomputed PE distance oracle."),
		mDistMisses: reg.NewCounter("rewire_dist_cache_misses_total",
			"Routers that had to compute a PE distance oracle (reverse BFS)."),
		mRCHits: reg.NewCounter("rewire_resultcache_hits_total",
			"Mapping requests served a finished mapping from the result cache (lookup plus deep copy, no compile)."),
		mRCMisses: reg.NewCounter("rewire_resultcache_misses_total",
			"Mapping requests that had to compile (result-cache misses; singleflight leaders)."),
		mRCEvicts: reg.NewCounter("rewire_resultcache_evictions_total",
			"Finished mappings dropped by the result cache's LRU bound."),
		mRCShared: reg.NewCounter("rewire_resultcache_singleflight_shared_total",
			"Requests that adopted a concurrent identical compile's result instead of compiling."),
		mBatchReqs: reg.NewCounter("rewire_serve_batch_requests_total",
			"POST /map/batch requests."),
		mBatchEntries: reg.NewCounter("rewire_serve_batch_entries_total",
			"Mapping entries across all batch requests."),
		mBatchDeduped: reg.NewCounter("rewire_serve_batch_deduped_total",
			"Batch entries served by copying a same-fingerprint entry's result within the batch."),
		mJobs: reg.NewCounterVec("rewire_serve_async_jobs_total",
			"Async mapping jobs by lifecycle event (submitted, completed, rejected).", "state"),
		mPfLanes: reg.NewCounterVec("rewire_portfolio_lanes_total",
			"Portfolio lanes launched, by backend.", "backend"),
		mPfWins: reg.NewCounterVec("rewire_portfolio_lane_wins_total",
			"Portfolio runs committed from this backend's lane (the race winner).", "backend"),
		mPfCancelled: reg.NewCounterVec("rewire_portfolio_cancelled_total",
			"Portfolio lanes cancelled after a higher-priority or lower-II lane won.", "backend"),
		mPfWastedMS: reg.NewCounterVec("rewire_portfolio_wasted_ms_total",
			"Wall-clock milliseconds spent on portfolio lanes whose outcome was discarded.", "backend"),
		mDiagReports: reg.NewCounterVec("rewire_diag_reports_total",
			"Mapping post-mortem reports collected, by run outcome (ok, failed).", "outcome"),
		mDiagContest: reg.NewHistogram("rewire_diag_contested_resources_units",
			"Distinct contested fabric resources per collected report.", metrics.Pow2Buckets(10)),
		mDiagProgress: reg.NewCounter("rewire_map_progress_events_total",
			"Progress events published on async jobs' live streams (drop-oldest retention; see /map/events/{id})."),
	}
	// The process gauges (uptime, goroutines, heap) and the
	// rewire_build_info identity gauge live in the shared collector;
	// metricsHandler refreshes them on every scrape.
	s.proc = metrics.RegisterProcess(reg)
	if cfg.CacheSize > 0 {
		s.cache = rewire.NewResultCache(cfg.CacheSize)
	}
	s.led = cfg.Ledger
	if s.led == nil {
		s.led = ledger.NewMemory()
	}
	s.jobs = newJobTable(cfg.JobCapacity)
	return s
}

// mux wires the HTTP surface.
func (s *server) mux() *http.ServeMux {
	m := http.NewServeMux()
	m.HandleFunc("POST /map", s.handleMap)
	m.HandleFunc("POST /map/batch", s.handleBatch)
	m.HandleFunc("POST /map/submit", s.handleSubmit)
	m.HandleFunc("GET /map/result/{id}", s.handleResult)
	m.HandleFunc("GET /map/events/{id}", s.handleEvents)
	m.Handle("GET /metrics", s.metricsHandler())
	m.HandleFunc("GET /healthz", s.handleHealthz)
	m.HandleFunc("GET /readyz", s.handleReadyz)
	m.HandleFunc("GET /qor", s.handleQoR)
	m.HandleFunc("GET /qor.html", s.handleQoRHTML)
	m.HandleFunc("GET /runs", s.handleRuns)
	m.HandleFunc("GET /runs/{id}/trace", s.handleRunTrace)
	m.HandleFunc("GET /runs/{id}/report", s.handleRunReport)
	m.HandleFunc("GET /runs/{id}/report.html", s.handleRunReportHTML)
	m.HandleFunc("GET /debug/pprof/", pprof.Index)
	m.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
	m.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
	m.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
	m.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	return m
}

// mapRequest is the POST /map body. Exactly one of Kernel (a bundled
// benchmark name) or KernelSrc (loop-kernel IR source) selects the
// kernel; Arch names a preset grid ("4x4r4") and ArchADL overrides it
// with a full ADL spec.
type mapRequest struct {
	Kernel    string `json:"kernel,omitempty"`
	KernelSrc string `json:"kernel_src,omitempty"`
	Unroll    int    `json:"unroll,omitempty"`
	Arch      string `json:"arch,omitempty"`
	ArchADL   string `json:"arch_adl,omitempty"`
	Mapper    string `json:"mapper,omitempty"` // rewire (default), pathfinder, sa, portfolio
	Seed      int64  `json:"seed,omitempty"`
	MaxII     int    `json:"max_ii,omitempty"`
	TimePerII int    `json:"time_per_ii_ms,omitempty"`
	// PortfolioBackends restricts a "portfolio" run to a comma-separated
	// backend subset (default: every registered backend). Part of the
	// result fingerprint — a subset may commit a different mapping.
	PortfolioBackends string `json:"portfolio_backends,omitempty"`
	// PortfolioParallelism is the portfolio lane window (0 = one lane per
	// backend, 1 = serial priority order). Clamped like
	// SweepParallelism; the committed result is width-independent.
	PortfolioParallelism int `json:"portfolio_parallelism,omitempty"`
	// SweepParallelism asks for a speculative II-sweep window (see
	// docs/CONCURRENCY.md, "Layer 3"). The server clamps it so that
	// Workers x window never oversubscribes GOMAXPROCS; the committed
	// mapping is bit-identical at every width, so clamping only affects
	// wall-clock.
	SweepParallelism int  `json:"sweep_parallelism,omitempty"`
	Render           bool `json:"render,omitempty"` // include the ASCII schedule grid
}

// mapResponse is the POST /map answer. TraceURL points at the flight
// recorder's Chrome-trace download for this run while it stays in the
// ring.
type mapResponse struct {
	RunID      string           `json:"run_id"`
	Success    bool             `json:"success"`
	Mapper     string           `json:"mapper"`
	Kernel     string           `json:"kernel"`
	Arch       string           `json:"arch"`
	II         int              `json:"ii,omitempty"`
	MII        int              `json:"mii"`
	DurationMS float64          `json:"duration_ms"`
	Error      string           `json:"error,omitempty"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	Grid       string           `json:"grid,omitempty"`
	TraceURL   string           `json:"trace_url"`
	// Cached marks a result served from the result cache (or by sharing
	// a concurrent identical compile): no compile ran for this request,
	// and DurationMS is the populating compile's cost — what the hit
	// saved. See docs/CACHING.md.
	Cached bool `json:"cached,omitempty"`
	// Deduped marks a batch entry answered by copying another entry of
	// the same batch with an identical fingerprint (it shares that
	// entry's run_id and trace).
	Deduped bool `json:"deduped,omitempty"`
	// ReportURL points at the run's post-mortem report while it stays in
	// the flight recorder; Report inlines its top-line summary on failed
	// runs, so a polling client learns what the fabric fought over
	// without a second request.
	ReportURL string              `json:"report_url,omitempty"`
	Report    *rewire.DiagSummary `json:"report,omitempty"`
	// WinnerBackend names the backend whose lane a successful portfolio
	// run committed ("rewire", "pathfinder", "sa"); empty for
	// single-mapper runs.
	WinnerBackend string `json:"winner_backend,omitempty"`
}

// errorResponse is the JSON body of every non-2xx answer.
type errorResponse struct {
	Error string `json:"error"`
}

func writeJSON(w http.ResponseWriter, code int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(code)
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(v)
}

// maxBodyBytes caps one mapping request's JSON body; a batch may carry
// MaxBatch times as much. Kernel IR and ADL sources run to a few KB.
const maxBodyBytes = 1 << 20

// decode reads r's JSON body, at most limit bytes, into v. A body it
// cannot read is rejected, and decode returns false.
func (s *server) decode(w http.ResponseWriter, r *http.Request, v any, limit int64) bool {
	err := json.NewDecoder(http.MaxBytesReader(w, r.Body, limit)).Decode(v)
	if err != nil {
		s.reject(w, "unknown", fmt.Errorf("bad JSON body: %w", err))
	}
	return err == nil
}

// reject answers 400 to a request the server will not run and counts it
// as invalid.
func (s *server) reject(w http.ResponseWriter, mapper string, err error) {
	s.mReqs.With(strings.ToLower(mapper), "invalid").Inc()
	s.lg.Warn("invalid mapping request", "err", err)
	writeJSON(w, http.StatusBadRequest, errorResponse{Error: err.Error()})
}

// job is one validated mapping request with its run's identity, its
// resolved engine request and fingerprint, and the observers the
// server reads back after the run. Every POST endpoint turns its
// requests into jobs and hands them to run.
type job struct {
	req   *mapRequest
	g     *rewire.DFG
	cgra  *rewire.CGRA
	runID string
	lg    *obs.Logger
	run   portfolio.Request
	fp    resultcache.Request
	diag  *rewire.DiagCollector
	bus   *rewire.ProgressBus
}

// newJob validates req against the server's caps, resolves mapper,
// kernel and architecture, and prepares the run: effective budgets,
// clamped windows, a private tracer and diagnostics collector and the
// request-scoped logger. bus is an async job's progress stream, nil
// otherwise (nothing subscribes to a synchronous run before its answer).
func (s *server) newJob(req *mapRequest, bus *rewire.ProgressBus) (*job, error) {
	run := portfolio.Request{
		Mapper: req.Mapper, Backends: portfolio.ParseBackends(req.PortfolioBackends),
		RunOptions: sweep.RunOptions{Seed: req.Seed, MaxII: req.MaxII, TimePerII: effectiveTPI(req)},
	}
	fp, err := run.Fingerprint()
	if err != nil {
		return nil, err
	}
	if fp.Mapper != "portfolio" && (req.PortfolioBackends != "" || req.PortfolioParallelism != 0) {
		return nil, fmt.Errorf("portfolio_backends/portfolio_parallelism require mapper \"portfolio\", not %q", req.Mapper)
	}
	if req.PortfolioParallelism < 0 {
		return nil, fmt.Errorf("portfolio_parallelism %d must be >= 0", req.PortfolioParallelism)
	}
	if req.MaxII < 0 || req.MaxII > s.cfg.MaxII {
		return nil, fmt.Errorf("max_ii %d out of range (server cap %d)", req.MaxII, s.cfg.MaxII)
	}
	if d := time.Duration(req.TimePerII) * time.Millisecond; d < 0 || d > s.cfg.MaxTimePerII {
		return nil, fmt.Errorf("time_per_ii_ms %d out of range (server cap %s)", req.TimePerII, s.cfg.MaxTimePerII)
	}
	if req.SweepParallelism < 0 {
		return nil, fmt.Errorf("sweep_parallelism %d must be >= 0", req.SweepParallelism)
	}

	var g *rewire.DFG
	switch {
	case req.Kernel != "" && req.KernelSrc != "":
		return nil, errors.New("set kernel or kernel_src, not both")
	case req.Kernel != "":
		g, err = rewire.LoadKernel(req.Kernel)
	case req.KernelSrc != "":
		g, err = rewire.ParseKernel(req.KernelSrc, req.Unroll)
	default:
		return nil, errors.New("missing kernel (bundled name) or kernel_src (kernel IR)")
	}
	if err != nil {
		return nil, err
	}

	var cgra *rewire.CGRA
	switch {
	case req.ArchADL != "":
		cgra, err = rewire.ParseArch(req.ArchADL)
	case req.Arch != "":
		cgra, err = arch.ParseName(req.Arch)
	default:
		return nil, errors.New("missing arch (e.g. \"4x4r4\") or arch_adl")
	}
	if err != nil {
		return nil, err
	}

	runID := obs.NewRunID()
	lg := s.lg.WithRun(runID)
	j := &job{req: req, g: g, cgra: cgra, runID: runID, lg: lg, fp: fp,
		diag: rewire.NewDiagCollector(), bus: bus}
	run.SweepWidth = s.clampSweep(req.SweepParallelism)
	if fp.Mapper == "portfolio" {
		// A zero width races one lane per resolved backend ("pf,pathfinder"
		// is one); resolve it here so the same oversubscription clamp as
		// the sweep window applies. The committed result is
		// width-independent, so clamping only affects wall-clock.
		want := req.PortfolioParallelism
		if want == 0 {
			want = strings.Count(fp.Backends, ",") + 1
		}
		run.LaneWidth = s.clampSweep(want)
	}
	run.Tracer = rewire.NewTracer()
	run.Obs = diag.NewObserver(obs.New(lg.Slog()), j.diag, bus)
	j.run = run
	return j, nil
}

// handleMap serves POST /map: one job, answered when its run finishes or
// when RequestTimeout (queue wait included) cuts it short.
func (s *server) handleMap(w http.ResponseWriter, r *http.Request) {
	var req mapRequest
	if !s.decode(w, r, &req, maxBodyBytes) {
		return
	}
	j, err := s.newJob(&req, nil)
	if err != nil {
		s.reject(w, req.Mapper, err)
		return
	}
	ctx, cancel := context.WithTimeout(r.Context(), s.cfg.RequestTimeout)
	defer cancel()
	resp, outcome := s.run(ctx, j)
	switch outcome {
	case "overload":
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: resp.Error})
	case "timeout":
		writeJSON(w, http.StatusGatewayTimeout, errorResponse{Error: resp.Error})
	case "canceled": // the client is gone
	default:
		// A valid request whose kernel has no feasible schedule is a
		// result, not a server error: 200 with success=false.
		writeJSON(w, http.StatusOK, resp)
	}
}

// run takes j through the worker pool under ctx, which bounds the whole
// job, queue wait included: admission on a slot, the cached compile,
// the run's bookkeeping and its answer. It returns the answer with the
// requests_total outcome it counted: ok or failed when ctx is still
// live once the run has finished, otherwise overload (the deadline
// passed in the queue), timeout (it passed mid-run) or canceled (the
// caller went away). A job cut short mid-run answers at once; its run goes on
// holding the slot until the cancelled sweep has unwound, which takes
// one mapper inner-loop iteration, and then records itself.
func (s *server) run(ctx context.Context, j *job) (mapResponse, string) {
	mapper := j.fp.Mapper
	count := func(outcome string) string {
		s.mReqs.With(mapper, outcome).Inc()
		return outcome
	}
	cut := func(onDeadline, msg string) (mapResponse, string) {
		outcome := onDeadline
		if !errors.Is(ctx.Err(), context.DeadlineExceeded) {
			outcome, msg = "canceled", "the request was canceled"
		}
		j.lg.Warn("mapping job cut short", "outcome", outcome)
		return mapResponse{RunID: j.runID, Mapper: mapper, Error: msg}, count(outcome)
	}

	queued := time.Now()
	s.mQueued.Add(1)
	select {
	case s.sem <- struct{}{}:
		s.mQueued.Add(-1)
	case <-ctx.Done():
		s.mQueued.Add(-1)
		return cut("overload", "no mapping worker became free in time; retry later")
	}
	s.mQueueDur.Observe(time.Since(queued).Seconds())
	s.mInflight.Add(1)

	var resp mapResponse
	done := make(chan struct{})
	go func() {
		defer close(done)
		m, res, cout, err := j.run.Map(ctx, j.g, j.cgra, s.cache)
		// Closing the bus ends every live SSE stream; late subscribers
		// still replay the retained tail.
		published, _ := j.bus.Stats()
		j.bus.Close()
		s.mDiagProgress.Add(int64(published))
		s.mInflight.Add(-1)
		<-s.sem
		rec := s.recordRun(j, res, cout)
		resp = buildMapResponse(j, m, res, rec, cout, err)
	}()
	select {
	case <-done:
	case <-ctx.Done():
	}
	if ctx.Err() != nil {
		return cut("timeout", "mapping exceeded its deadline; the run was cancelled")
	}
	return resp, count(boolOutcome(resp.Success))
}

// clampSweep caps a request's speculative II-sweep window so that the
// worst case — every worker slot running a maximally speculative sweep —
// stays within GOMAXPROCS: cap = max(1, GOMAXPROCS/Workers).
func (s *server) clampSweep(want int) int {
	cap_ := runtime.GOMAXPROCS(0) / s.cfg.Workers
	if cap_ < 1 {
		cap_ = 1
	}
	if want > cap_ {
		return cap_
	}
	if want < 1 {
		return 1
	}
	return want
}

// boolOutcome maps a run's success flag to the requests_total outcome
// label.
func boolOutcome(ok bool) string {
	if ok {
		return "ok"
	}
	return "failed"
}

// effectiveTPI resolves a request's per-II budget to what the engine
// will actually run with. Fingerprinting uses the same resolution, so
// "default budget" and "2000ms" share a cache entry.
func effectiveTPI(req *mapRequest) time.Duration {
	if req.TimePerII == 0 {
		return 2 * time.Second
	}
	return time.Duration(req.TimePerII) * time.Millisecond
}

// buildMapResponse renders a job's finished (or cache-served) run as
// its wire answer.
func buildMapResponse(j *job, m *rewire.Mapping, res rewire.Result,
	rec runRecord, cout rewire.CacheOutcome, mapErr error) mapResponse {
	resp := mapResponse{
		RunID:      j.runID,
		Success:    res.Success,
		Mapper:     j.fp.Mapper,
		Kernel:     res.Kernel,
		Arch:       res.Arch,
		II:         res.II,
		MII:        res.MII,
		DurationMS: float64(res.Duration.Microseconds()) / 1000,
		Counters:   rec.Counters,
		TraceURL:   "/runs/" + j.runID + "/trace",
		Cached:     cout.Hit,
		ReportURL:  "/runs/" + j.runID + "/report",
	}
	if mapErr != nil {
		resp.Error = mapErr.Error()
	}
	if res.Portfolio != nil {
		resp.WinnerBackend = res.Portfolio.WinnerBackend
	}
	if !res.Success {
		resp.Report = rec.report.Summary()
	}
	if j.req.Render && m != nil {
		resp.Grid = rewire.Render(m)
	}
	return resp
}

// recordRun folds a job's finished run into the metrics registry, files
// the flight-recorder entry and appends the run to the QoR ledger,
// whether the job was answered in time or cut short. requests_total is
// counted by run, which alone knows the outcome.
func (s *server) recordRun(j *job, res rewire.Result, cout rewire.CacheOutcome) runRecord {
	mapper, tr := j.fp.Mapper, j.run.Tracer
	s.mDur.With(mapper).Observe(res.Duration.Seconds())
	if res.Success {
		s.mII.With(mapper).Observe(float64(res.II))
		s.mSlack.With(mapper).Observe(float64(res.II - res.MII))
	}
	s.mAmend.With(mapper).Observe(float64(res.ClusterAmendments))
	if res.Portfolio != nil {
		for _, b := range res.Portfolio.PerBackend {
			s.mPfLanes.With(b.Backend).Add(int64(b.Launched))
			s.mPfWins.With(b.Backend).Add(int64(b.Won))
			s.mPfCancelled.With(b.Backend).Add(int64(b.Cancelled))
			s.mPfWastedMS.With(b.Backend).Add(b.WastedMS)
		}
	}
	metrics.FoldTracer(s.reg, tr)
	report := j.diag.Report()
	if report != nil {
		s.mDiagReports.With(boolOutcome(res.Success)).Inc()
		s.mDiagContest.Observe(float64(len(report.Contested)))
	}

	rec := runRecord{
		ID:         j.runID,
		Time:       time.Now().UTC(),
		Kernel:     res.Kernel,
		Arch:       res.Arch,
		Mapper:     mapper,
		Seed:       j.req.Seed,
		Success:    res.Success,
		II:         res.II,
		MII:        res.MII,
		DurationMS: float64(res.Duration.Microseconds()) / 1000,
		Counters:   tr.CounterTotals(),
		tracer:     tr,
		report:     report,
	}
	if res.Portfolio != nil {
		rec.WinnerBackend = res.Portfolio.WinnerBackend
	}
	s.flight.add(rec)

	e := ledger.NewEntry("serve", j.g, j.cgra, j.fp, res, cout.Hit || cout.Shared, report)
	if err := s.led.Append(e); err != nil {
		j.lg.Error("ledger append failed", "err", err)
	}

	j.lg.Info("run recorded", "mapper", mapper, "kernel", res.Kernel, "arch", res.Arch,
		"success", res.Success, "ii", res.II, "mii", res.MII,
		"duration_ms", res.Duration.Milliseconds())
	return rec
}

// qorResponse is the GET /qor answer: the ledger's aggregate view.
type qorResponse struct {
	Runs   int            `json:"runs"`
	Groups []qorGroup     `json:"groups"`
	Ledger string         `json:"ledger,omitempty"` // backing file, "" when in-memory
	Build  buildinfo.Info `json:"build"`
}

// qorGroup is one (kernel, arch, mapper) aggregate on the wire.
type qorGroup struct {
	Kernel      string  `json:"kernel"`
	Arch        string  `json:"arch"`
	Mapper      string  `json:"mapper"`
	Runs        int     `json:"runs"`
	Successes   int     `json:"successes"`
	SuccessRate float64 `json:"success_rate"`
	BestII      int     `json:"best_ii,omitempty"`
	MII         int     `json:"mii"`
	MedianMS    float64 `json:"median_compile_ms"`
	LastTSMS    int64   `json:"last_ts_ms"`
}

// handleQoR serves the ledger aggregates as JSON.
func (s *server) handleQoR(w http.ResponseWriter, _ *http.Request) {
	entries := s.led.Entries()
	groups := ledger.Aggregate(entries)
	out := qorResponse{Runs: len(entries), Groups: make([]qorGroup, 0, len(groups)),
		Ledger: s.led.Path(), Build: buildinfo.Get()}
	for _, g := range groups {
		out.Groups = append(out.Groups, qorGroup{
			Kernel: g.Kernel, Arch: g.Arch, Mapper: g.Mapper,
			Runs: g.Runs, Successes: g.Successes, SuccessRate: g.SuccessRate(),
			BestII: g.BestII, MII: g.MII,
			MedianMS: ledger.Median(g.CompileMS), LastTSMS: g.LastTSMS,
		})
	}
	writeJSON(w, http.StatusOK, out)
}

// handleQoRHTML serves the QoR dashboard as a self-contained page.
func (s *server) handleQoRHTML(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, viz.RenderQoRHTML(s.led.Entries()))
}

// metricsHandler refreshes the process gauges and cache counters, then
// renders.
func (s *server) metricsHandler() http.Handler {
	inner := s.reg.Handler()
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		s.proc.Refresh()
		s.refreshCacheCounters()
		inner.ServeHTTP(w, r)
	})
}

// refreshCacheCounters folds the cumulative cache stats — process-wide
// substrate caches plus this server's result cache — into the registry
// counters as deltas since the previous scrape (the mutex keeps
// concurrent scrapes from double-counting a delta).
func (s *server) refreshCacheCounters() {
	mh, mm := mrrg.CacheStats()
	dh, dm := dist.CacheStats()
	rc := s.cache.Stats() // nil cache reads all-zero
	s.cacheMu.Lock()
	defer s.cacheMu.Unlock()
	s.mMRRGHits.Add(mh - s.lastCache[0])
	s.mMRRGMisses.Add(mm - s.lastCache[1])
	s.mDistHits.Add(dh - s.lastCache[2])
	s.mDistMisses.Add(dm - s.lastCache[3])
	s.mRCHits.Add(rc.Hits - s.lastCache[4])
	s.mRCMisses.Add(rc.Misses - s.lastCache[5])
	s.mRCEvicts.Add(rc.Evictions - s.lastCache[6])
	s.mRCShared.Add(rc.SingleflightShared - s.lastCache[7])
	s.lastCache = [8]int64{mh, mm, dh, dm, rc.Hits, rc.Misses, rc.Evictions, rc.SingleflightShared}
}

// handleHealthz: liveness — the process answers.
func (s *server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ok")
}

// handleReadyz: readiness — warmup done and not draining.
func (s *server) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	if !s.ready.Load() {
		writeJSON(w, http.StatusServiceUnavailable, errorResponse{Error: "warming up"})
		return
	}
	w.WriteHeader(http.StatusOK)
	fmt.Fprintln(w, "ready")
}

// warmup loads the kernel registry once so the first request doesn't
// pay for it, then flips readiness.
func (s *server) warmup() {
	for _, name := range rewire.Kernels() {
		if _, err := rewire.LoadKernel(name); err != nil {
			s.lg.Error("kernel failed to load during warmup", "kernel", name, "err", err)
		}
	}
	s.ready.Store(true)
	s.lg.Info("ready", "workers", s.cfg.Workers, "flight_size", s.cfg.FlightSize)
}

// handleRuns serves the flight recorder, newest first.
func (s *server) handleRuns(w http.ResponseWriter, _ *http.Request) {
	writeJSON(w, http.StatusOK, s.flight.list())
}

// handleRunTrace serves one recorded run's Chrome trace.
func (s *server) handleRunTrace(w http.ResponseWriter, r *http.Request) {
	id := r.PathValue("id")
	rec, ok := s.flight.get(id)
	if !ok {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("run %q is not in the flight recorder (keeps the last %d runs)", id, s.cfg.FlightSize)})
		return
	}
	w.Header().Set("Content-Type", "application/json")
	w.Header().Set("Content-Disposition", fmt.Sprintf("attachment; filename=%q", "run_"+id+".trace.json"))
	if err := rec.tracer.WriteChromeTrace(w); err != nil {
		s.lg.Error("trace export failed", "run_id", id, "err", err)
	}
}

// handleRunReport serves one recorded run's post-mortem as JSON
// (schema "rewire-report-v1").
func (s *server) handleRunReport(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reportFor(w, r)
	if !ok {
		return
	}
	writeJSON(w, http.StatusOK, rec.report)
}

// handleRunReportHTML serves the same report as a self-contained HTML
// page.
func (s *server) handleRunReportHTML(w http.ResponseWriter, r *http.Request) {
	rec, ok := s.reportFor(w, r)
	if !ok {
		return
	}
	w.Header().Set("Content-Type", "text/html; charset=utf-8")
	fmt.Fprint(w, rewire.RenderReportHTML(rec.report))
}

// reportFor resolves {id} to a flight-recorder entry that carries a
// report, writing the 404 itself otherwise.
func (s *server) reportFor(w http.ResponseWriter, r *http.Request) (runRecord, bool) {
	id := r.PathValue("id")
	rec, ok := s.flight.get(id)
	if !ok || rec.report == nil {
		writeJSON(w, http.StatusNotFound,
			errorResponse{Error: fmt.Sprintf("run %q has no report in the flight recorder (keeps the last %d runs)", id, s.cfg.FlightSize)})
		return runRecord{}, false
	}
	return rec, true
}

// runRecord is one flight-recorder entry: the run summary plus the
// retained tracer backing the /runs/{id}/trace download.
type runRecord struct {
	ID         string           `json:"run_id"`
	Time       time.Time        `json:"time"`
	Kernel     string           `json:"kernel"`
	Arch       string           `json:"arch"`
	Mapper     string           `json:"mapper"`
	Seed       int64            `json:"seed"`
	Success    bool             `json:"success"`
	II         int              `json:"ii,omitempty"`
	MII        int              `json:"mii"`
	DurationMS float64          `json:"duration_ms"`
	Counters   map[string]int64 `json:"counters,omitempty"`
	// WinnerBackend names the backend whose lane a portfolio run
	// committed; empty for single-mapper runs.
	WinnerBackend string `json:"winner_backend,omitempty"`

	tracer *trace.Tracer
	report *rewire.DiagReport
}

// flightRecorder is a fixed-size ring of the last N runs. Old entries
// fall off the back, releasing their tracers (and span memory) to GC —
// the daemon's trace retention is bounded by construction.
type flightRecorder struct {
	mu   sync.Mutex
	buf  []runRecord
	next int
	full bool
}

func newFlightRecorder(n int) *flightRecorder {
	return &flightRecorder{buf: make([]runRecord, n)}
}

func (f *flightRecorder) add(rec runRecord) {
	f.mu.Lock()
	f.buf[f.next] = rec
	f.next = (f.next + 1) % len(f.buf)
	if f.next == 0 {
		f.full = true
	}
	f.mu.Unlock()
}

// list returns the recorded runs, newest first.
func (f *flightRecorder) list() []runRecord {
	f.mu.Lock()
	defer f.mu.Unlock()
	n := f.next
	if f.full {
		n = len(f.buf)
	}
	out := make([]runRecord, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, f.buf[(f.next-i+len(f.buf))%len(f.buf)])
	}
	return out
}

func (f *flightRecorder) get(id string) (runRecord, bool) {
	f.mu.Lock()
	defer f.mu.Unlock()
	for _, r := range f.buf {
		if r.ID == id {
			return r, true
		}
	}
	return runRecord{}, false
}
