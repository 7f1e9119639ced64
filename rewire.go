// Package rewire is a from-scratch reproduction of "Rewire: Advancing
// CGRA Mapping Through a Consolidated Routing Paradigm" (DAC 2025): a
// complete CGRA mapping stack — loop-kernel IR, DFG analyses, CGRA and
// modulo-routing-resource-graph models, an exact-latency router — with
// three mappers on top: Rewire (the paper's multi-node consolidated
// routing paradigm), PF* (a PathFinder-style negotiated-congestion
// baseline) and SA (a simulated-annealing baseline).
//
// Quick start:
//
//	g, _ := rewire.LoadKernel("fft")
//	cgra := rewire.New4x4(4)
//	m, res, err := rewire.Map(g, cgra, rewire.Options{})
//	fmt.Println(res, err)
//	fmt.Print(rewire.Render(m))
//
// The full evaluation harness behind the paper's Figure 5, Figure 6 and
// Table I lives in cmd/rewire-experiments.
package rewire

import (
	"context"
	"fmt"
	"io"
	"time"

	"rewire/internal/adl"
	"rewire/internal/arch"
	"rewire/internal/bundle"
	"rewire/internal/config"
	"rewire/internal/core"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/interp"
	"rewire/internal/kernelir"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/obs"
	"rewire/internal/portfolio"
	"rewire/internal/power"
	"rewire/internal/resultcache"
	"rewire/internal/sim"
	"rewire/internal/stats"
	"rewire/internal/sweep"
	"rewire/internal/trace"
	"rewire/internal/viz"
)

// Re-exported core types. Aliases keep the implementation in internal
// packages while giving users real names to hold.
type (
	// CGRA describes a target architecture (grid, registers, banks).
	CGRA = arch.CGRA
	// DFG is a data-flow graph of a loop kernel.
	DFG = dfg.Graph
	// Mapping is a placed-and-routed modulo schedule.
	Mapping = mapping.Mapping
	// Result carries mapping quality and compilation-effort metrics.
	Result = stats.Result
	// Config is a generated cycle-by-cycle CGRA configuration.
	Config = config.Config
	// Trace is the observable store stream of an execution.
	Trace = interp.Trace
	// EnergyReport is a per-iteration activity and energy estimate.
	EnergyReport = power.Report
	// Tracer collects hierarchical phase spans, counters and histograms
	// from a mapping run. A nil *Tracer is the disabled tracer: every
	// method is a no-op costing one pointer check, so instrumented code
	// needs no guards. Export with WriteChromeTrace (Perfetto-loadable)
	// or WriteJSONL. See docs/OBSERVABILITY.md.
	Tracer = trace.Tracer
	// Logger emits structured per-run log records (log/slog underneath).
	// A nil *Logger is the disabled logger: every method is a no-op
	// costing one pointer check. See NewLogger and docs/OBSERVABILITY.md.
	Logger = obs.Logger
	// ResultCache is a bounded, LRU-evicting, singleflight-collapsing
	// cache of finished mappings, content-addressed by the canonical
	// (DFG, architecture, options) fingerprint triple. A nil
	// *ResultCache is the disabled cache. See NewResultCache, MapCached
	// and docs/CACHING.md.
	ResultCache = resultcache.Cache
	// CacheOutcome reports how a MapCached call was satisfied: Hit
	// (served without compiling) and Shared (by waiting on a concurrent
	// identical compile).
	CacheOutcome = resultcache.Outcome
	// DiagCollector accumulates a mapping post-mortem: the per-II attempt
	// timeline, amendment-round convergence series, contested-resource
	// attribution on failed attempts, and the unroutable-edge list. A nil
	// *DiagCollector is the disabled collector: every method is a no-op
	// costing one pointer check. See NewDiagCollector and
	// docs/OBSERVABILITY.md.
	DiagCollector = diag.Collector
	// DiagReport is the structured post-mortem a DiagCollector renders
	// after the run (schema "rewire-report-v1"). Marshal it as JSON or
	// render it with RenderReport/RenderReportHTML.
	DiagReport = diag.Report
	// DiagSummary is a report's top-line condensation (outcome, IIs
	// attempted, the few most contested resources), sized for embedding
	// in API error answers.
	DiagSummary = diag.Summary
	// ProgressBus is a bounded drop-oldest broadcast bus of coarse
	// progress events (run, II and amendment-round boundaries). A nil
	// *ProgressBus is the disabled bus: Publish is a no-op costing one
	// pointer check. See NewProgressBus and docs/OBSERVABILITY.md.
	ProgressBus = diag.Bus
	// ProgressEvent is one progress-bus event (schema
	// "rewire-progress-v1").
	ProgressEvent = diag.Event
)

// NewResultCache builds a result cache bounded to capacity finished
// mappings (0 means the default, resultcache.DefaultCapacity). Pass it
// in Options.Cache to make Map/MapCtx consult and populate it.
func NewResultCache(capacity int) *ResultCache { return resultcache.New(capacity) }

// NewTracer returns an enabled tracer to pass in Options.Tracer.
func NewTracer() *Tracer { return trace.New() }

// NewDiagCollector returns an enabled diagnostics collector to pass in
// Options.Diag. After the run, Report() (or ReportTopK) renders the
// post-mortem.
func NewDiagCollector() *DiagCollector { return diag.NewCollector() }

// NewProgressBus returns an enabled progress bus retaining up to
// capacity events (0 means diag.DefaultBusCapacity). Pass it in
// Options.Progress, Subscribe for live streams, and Close it when the
// run's consumers are done.
func NewProgressBus(capacity int) *ProgressBus { return diag.NewBus(capacity) }

// NewLogger builds a structured logger writing to w to pass in
// Options.Logger. Level is "debug", "info", "warn" or "error"; format
// is "text" or "json". Both CLIs and the rewire-serve daemon use this
// same setup, so log flags mean the same thing everywhere.
func NewLogger(w io.Writer, level, format string) (*Logger, error) {
	return obs.Setup(w, level, format)
}

// MapperName selects which mapping algorithm Map uses.
type MapperName string

// Available mappers.
const (
	MapperRewire     MapperName = "rewire"
	MapperPathFinder MapperName = "pathfinder"
	MapperSA         MapperName = "sa"
	// MapperPortfolio races the table's backends (Rewire, PF*, SA)
	// per II under one shared budget and commits the result of the
	// highest-priority backend that succeeds at the lowest feasible II
	// — deterministic at every parallelism width. See
	// internal/portfolio and docs/CONCURRENCY.md, "Layer 4".
	MapperPortfolio MapperName = "portfolio"
)

// Options tunes Map. The zero value maps with Rewire under default
// budgets.
type Options struct {
	// Mapper selects the algorithm (default MapperRewire). Aliases name
	// the same mapper in any case: "pf" and "PF*" are MapperPathFinder.
	Mapper MapperName
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// TimePerII bounds the wall-clock per attempted II (default 10s).
	TimePerII time.Duration
	// MaxII caps the initiation-interval sweep (default 32).
	MaxII int
	// SweepParallelism is the speculative II-sweep window: how many II
	// attempts may run concurrently (0 or 1 is the serial sweep). The
	// committed mapping and II are bit-identical at every width — only
	// wall-clock changes. See docs/CONCURRENCY.md, "Layer 3".
	SweepParallelism int
	// PortfolioBackends selects which backends MapperPortfolio races
	// (by canonical name or alias: "rewire", "pathfinder"/"pf"/"pf*",
	// "sa"). Empty races every backend. The subset can change the
	// committed mapping (a higher-priority backend may win a tie), so it
	// participates in the cache fingerprint; the order given here never
	// matters — priority is fixed by the backend table. Ignored by the
	// single mappers.
	PortfolioBackends []string
	// PortfolioParallelism is the portfolio lane window: how many
	// (backend, II) lanes race concurrently. 0 defaults to the backend
	// count; 1 is the serial schedule. Like SweepParallelism it changes
	// wall-clock only, never the committed mapping. Ignored by the
	// single mappers.
	PortfolioParallelism int
	// Tracer, when non-nil, records phase spans and counters for the run
	// (see NewTracer). Nil — the default — costs one pointer check per
	// instrumentation point.
	Tracer *Tracer
	// Logger, when non-nil, receives structured run- and II-level log
	// records (see NewLogger). Nil — the default — disables logging at
	// the same one-pointer-check cost as the tracer.
	Logger *Logger
	// Cache, when non-nil, makes Map/MapCtx consult and populate a
	// content-addressed cache of finished mappings before compiling: a
	// hit is a lookup plus one deep copy, never a recompile, and
	// concurrent identical requests collapse into a single compile.
	// Returned mappings are always caller-owned copies. Only the
	// fingerprint-relevant fields above participate in the cache key
	// (see optionFingerprintClass and docs/CACHING.md).
	Cache *ResultCache
	// Diag, when non-nil, collects the mapping post-mortem (attempt
	// timeline, contested resources, unroutable edges) for the run; read
	// it back with Diag.Report() afterwards. Nil — the default — disables
	// collection at one pointer check per site. Diagnostics observe the
	// search and never feed back into it.
	Diag *DiagCollector
	// Progress, when non-nil, receives coarse live progress events
	// (run/II/round boundaries) during the run; subscribe to stream them.
	// Nil — the default — disables publishing at one pointer check per
	// boundary. The caller owns the bus lifecycle (Close it after the
	// run); mappers only publish.
	Progress *ProgressBus
}

// optionFingerprintClass classifies every Options field as cache-key
// relevant (true: it can change the committed mapping) or explicitly
// exempt (false: wall-clock-only or observer-only — SweepParallelism
// commits bit-identical mappings at every width per the PR 5
// determinism matrix, tracers and loggers never feed back into the
// search, and the cache handle itself is not part of what it caches).
// TestOptionsFingerprintHonesty fails the build of any Options field
// added without a classification here, keeping the fingerprint honest
// by construction.
var optionFingerprintClass = map[string]bool{
	"Mapper":               true,
	"Seed":                 true,
	"TimePerII":            true,
	"MaxII":                true,
	"SweepParallelism":     false,
	"PortfolioBackends":    true,
	"PortfolioParallelism": false,
	"Tracer":               false,
	"Logger":               false,
	"Cache":                false,
	"Diag":                 false,
	"Progress":             false,
}

// CacheKey returns the canonical content-address of one mapping
// request: the string form of the (DFG fingerprint, architecture
// fingerprint, options fingerprint) triple. Equal keys commit
// bit-identical mappings; an unset budget keys as its default, so
// Options{} and the same options with the defaults written out share a
// key. It panics on a mapper or backend name Map rejects.
func CacheKey(g *DFG, cgra *CGRA, opt Options) string {
	fp, err := request(opt).Fingerprint()
	if err != nil {
		panic("rewire: " + err.Error())
	}
	return resultcache.KeyFor(g, cgra, fp).String()
}

// New4x4 builds the paper's 4x4 CGRA preset with the given register-file
// size (two memory banks on the left-most column).
func New4x4(regs int) *CGRA { return arch.New4x4(regs) }

// New8x8 builds the paper's 8x8 CGRA preset with the given register-file
// size (eight banks, memory access on both outer columns).
func New8x8(regs int) *CGRA { return arch.New8x8(regs) }

// NewCGRA builds a custom architecture: rows x cols PEs with regs
// registers each, banks memory banks, and loads/stores allowed on the
// PEs of the listed columns.
func NewCGRA(name string, rows, cols, regs, banks int, memCols ...int) *CGRA {
	return arch.New(name, rows, cols, regs, banks, memCols...)
}

// Kernels lists the bundled benchmark kernels (PolyBench, MachSuite and
// MiBench selections used in the paper's evaluation).
func Kernels() []string { return kernels.Names() }

// LoadKernel lowers a bundled benchmark kernel to a DFG.
func LoadKernel(name string) (*DFG, error) { return kernels.Load(name) }

// ParseKernel compiles loop-kernel IR source (see internal/kernelir for
// the language) to a DFG, optionally unrolling the body first. An
// unroll factor of 0 or 1 means no unrolling.
func ParseKernel(src string, unroll int) (*DFG, error) {
	prog, err := kernelir.Parse(src)
	if err != nil {
		return nil, err
	}
	if unroll > 1 {
		prog, err = kernelir.Unroll(prog, unroll)
		if err != nil {
			return nil, err
		}
	}
	return kernelir.Lower(prog)
}

// Map places and routes the kernel onto the CGRA, minimising the
// initiation interval. It returns the mapping (nil when no valid mapping
// was found within the budgets), the instrumentation record, and an
// error describing a failed mapping.
func Map(g *DFG, cgra *CGRA, opt Options) (*Mapping, Result, error) {
	return MapCtx(context.Background(), g, cgra, opt)
}

// MapCtx is Map with cancellation: cancelling ctx aborts the II sweep
// promptly (in-flight attempts unwind within one inner-loop iteration)
// and the call reports a failed mapping. rewire-serve uses this to tear
// down speculative work when a client disconnects or times out. When
// Options.Cache is set the compile goes through the result cache; use
// MapCached to additionally learn whether it hit.
func MapCtx(ctx context.Context, g *DFG, cgra *CGRA, opt Options) (*Mapping, Result, error) {
	m, res, _, err := MapCached(ctx, g, cgra, opt)
	return m, res, err
}

// MapCached is MapCtx plus the cache outcome. With Options.Cache nil
// it compiles unconditionally and reports a zero outcome; with a cache
// it returns a stored mapping when the request's fingerprint is known
// (a deep copy — caller-owned, mutating it cannot corrupt the cache),
// collapses concurrent identical requests into one compile, and stores
// successful results for later requests. Failed mappings are never
// cached: failure can be budget-dependent, so only successes are
// content-addressable. See docs/CACHING.md.
func MapCached(ctx context.Context, g *DFG, cgra *CGRA, opt Options) (*Mapping, Result, CacheOutcome, error) {
	m, res, out, err := request(opt).Map(ctx, g, cgra, opt.Cache)
	if err != nil {
		err = fmt.Errorf("rewire: %w", err)
	}
	return m, res, out, err
}

// request is the mapping request opt states.
func request(opt Options) portfolio.Request {
	return portfolio.Request{
		Mapper: string(opt.Mapper), Backends: opt.PortfolioBackends,
		SweepWidth: opt.SweepParallelism, LaneWidth: opt.PortfolioParallelism,
		RunOptions: runOptions(opt),
	}
}

// runOptions is the slice of opt every mapper run shares.
func runOptions(opt Options) sweep.RunOptions {
	return sweep.RunOptions{
		Seed: opt.Seed, TimePerII: opt.TimePerII, MaxII: opt.MaxII,
		Tracer: opt.Tracer, Obs: diag.NewObserver(opt.Logger, opt.Diag, opt.Progress),
	}
}

// Validate independently re-checks a mapping: placements on compatible
// exclusive FUs, all dependencies routed conflict-free with exact
// latencies, memory ops holding bank ports.
func Validate(m *Mapping) error { return mapping.Validate(m) }

// MII returns the theoretical minimum initiation interval of a kernel on
// an architecture (max of the recurrence and resource bounds).
func MII(g *DFG, cgra *CGRA) int {
	return mapping.MII(g, cgra)
}

// Render draws the mapping as per-cycle ASCII grids of the PE array.
func Render(m *Mapping) string { return viz.MappingGrid(m) }

// RenderRoutes lists every routed edge with its resource chain.
func RenderRoutes(m *Mapping) (string, error) { return viz.RouteTable(m) }

// RenderUtilisation summarises fabric occupancy (ALU/link/register/bank).
func RenderUtilisation(m *Mapping) (string, error) { return viz.Utilisation(m) }

// RenderReport renders a mapping post-mortem as readable ASCII: the II
// attempt timeline with convergence sparklines, a contention pressure
// heatmap over the fabric grid, the most contested resources and the
// unroutable edges. Safe on a nil report.
func RenderReport(r *DiagReport) string { return viz.RenderReport(r) }

// RenderReportHTML renders the post-mortem as a self-contained HTML
// page with a colour-graded heatmap. Safe on a nil report.
func RenderReportHTML(r *DiagReport) string { return viz.RenderReportHTML(r) }

// Amend repairs an arbitrary partial or congested mapping at its own II
// without building a new one from scratch — Rewire is orthogonal to the
// mapper that produced the input ("can take any initial mapping from
// other mappers", §I). The input is left untouched; the repaired copy is
// returned.
func Amend(m *Mapping, opt Options) (*Mapping, Result, error) {
	return core.Amend(m, core.Options{RunOptions: runOptions(opt)})
}

// GenerateConfig lowers a valid mapping to the cycle-by-cycle hardware
// configuration (per-PE operation, operand muxes, link drivers, register
// writes, bank-port schedule) that the CGRA executes.
func GenerateConfig(m *Mapping) (*Config, error) { return config.Generate(m) }

// Simulate executes a configuration on the cycle-accurate CGRA simulator
// for the given number of loop iterations and returns the observed store
// trace.
func Simulate(c *Config, iterations int) (*Trace, error) { return sim.Run(c, iterations) }

// Interpret runs the reference interpreter over the DFG: the store
// trace a functionally correct execution must reproduce.
func Interpret(g *DFG, iterations int) (*Trace, error) { return interp.Run(g, iterations) }

// VerifyExecution generates a mapping's configuration, simulates it, and
// compares the store stream with the reference interpreter — end-to-end
// functional verification of placement, routing and configuration.
func VerifyExecution(m *Mapping, iterations int) error {
	c, err := config.Generate(m)
	if err != nil {
		return err
	}
	return sim.Verify(c, iterations)
}

// EstimateEnergy reports the per-iteration activity and normalised
// dynamic energy of a mapping (operation mix, link toggles, register
// writes) under the default per-event model.
func EstimateEnergy(m *Mapping) (*EnergyReport, error) { return power.EstimateMapping(m) }

// ParseArch builds a CGRA from an architecture-description-language
// spec (see internal/adl for the format): grid, registers, banks,
// memory columns, torus links, heterogeneous capability stripping.
func ParseArch(src string) (*CGRA, error) { return adl.Parse(src) }

// FormatArch renders an architecture back into ADL text.
func FormatArch(c *CGRA) string { return adl.Format(c) }

// SaveMapping serialises a valid mapping to a self-contained JSON bundle
// (DFG, ADL architecture, placements, routes, bank ports).
func SaveMapping(m *Mapping) ([]byte, error) { return bundle.Marshal(m) }

// LoadMapping decodes a JSON bundle into a fully re-validated mapping.
func LoadMapping(data []byte) (*Mapping, error) { return bundle.Unmarshal(data) }
