package sweep

import (
	"context"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/mapping"
	"rewire/internal/stats"
	"rewire/internal/trace"
)

// RunOptions are the options every mapper run shares; each mapper's
// Options embeds them. Zero values select the defaults.
type RunOptions struct {
	// Seed drives all randomness. Each attempt draws its own stream,
	// SeedForII(Seed, II) in a single-mapper run and
	// SeedForBackend(Seed, backend, II) in a portfolio lane, so runs are
	// reproducible per seed at every parallelism width.
	Seed int64
	// MaxII caps the explored initiation intervals (default 32).
	MaxII int
	// TimePerII bounds the wall-clock of one II attempt (default 10s).
	TimePerII time.Duration

	// Tracer receives phase spans and work counters (see internal/trace
	// and docs/OBSERVABILITY.md). nil disables tracing at ~zero
	// hot-path cost.
	Tracer *trace.Tracer
	// Obs records the run, II, attempt and round boundaries in the log,
	// the post-mortem and the progress stream (see diag.Observer). The
	// driver hands each attempt its lane's observer. nil disables all
	// three at one pointer check per boundary.
	Obs *diag.Observer
}

// WithDefaults fills the zero budgets with the defaults.
func (o RunOptions) WithDefaults() RunOptions {
	if o.MaxII == 0 {
		o.MaxII = 32
	}
	if o.TimePerII == 0 {
		o.TimePerII = 10 * time.Second
	}
	return o
}

// Backend is one row of the static backend table: a mapper the driver
// can run alone or race against the other rows.
type Backend struct {
	// Name is the canonical name and portfolio lane label ("rewire",
	// "pathfinder", "sa").
	Name string
	// Stat is the display name a run of this mapper reports as
	// stats.Result.Mapper ("Rewire", "PF*", "SA").
	Stat string
	// Span names the root span of a run of this mapper ("rewire.map",
	// "pf.map", "sa.map").
	Span string
	// Attempt runs exactly one II attempt under the run's root span with
	// a driver-derived seed and reports the mapping (nil on failure),
	// the attempt's effort tally (already filled into the tracer's
	// counters, see stats.Effort.Fill) and whether the II is feasible.
	// It owns no run lifecycle: the driver does. It must be a pure
	// function of (g, a, ii, seed) — all randomness from seed, all
	// mutable state owned — so attempts stay independent.
	Attempt func(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, opt RunOptions) (*mapping.Mapping, stats.Effort, bool)
}

// Plan is what one driver call runs: a single mapper is a one-row plan
// (Solo); the portfolio is a racing plan over its rows.
type Plan struct {
	// Name, Stat and Span identify the run like a Backend row does.
	Name, Stat, Span string
	// Rows are the backends in priority order, highest first.
	Rows []Backend
	// Race selects the portfolio rules: per-lane seeds from
	// SeedForBackend, lane labels, lane tallies in Result.Portfolio and a
	// summed RemapIterations. Without it a run keeps the single-mapper
	// rules: SeedForII, empty lane labels, a nil Result.Portfolio and
	// RemapIterations averaged per explored II.
	Race bool
	// Parallelism is the attempt window: how many (II, backend) lanes
	// may run concurrently. 0 selects one lane per row (the serial sweep
	// for a single mapper); 1 is the serial schedule.
	Parallelism int
}

// Solo is the plan that runs one backend alone.
func Solo(b Backend, parallelism int) Plan {
	return Plan{Name: b.Name, Stat: b.Stat, Span: b.Span, Rows: []Backend{b}, Parallelism: parallelism}
}

// laneOut is one lane's outcome.
type laneOut struct {
	m   *mapping.Mapping
	eff stats.Effort
}

// laneTally is one lane's wall-clock accounting, written exactly once
// by the lane's goroutine. Reads happen only after Run returns, which
// drains every launched lane first, so the slice needs no lock.
type laneTally struct {
	launched  bool
	cancelled bool
	elapsedMS int64
}

// Drive runs one mapper run from start to commit: the root span, the
// run's start and end on the observer, the II sweep and the effort
// merge.
//
// Lane k is row k%len(Rows) at II = MII + k/len(Rows): II ascending,
// priority descending within an II. Run commits the lowest feasible
// lane, so the committed (II, backend, mapping) and the merged effort
// are "lowest feasible II, then highest-priority row" at every
// Parallelism, including the serial schedule. A single mapper is the
// one-row case, where lane k is simply II = MII + k.
func Drive(ctx context.Context, g *dfg.Graph, a *arch.CGRA, p Plan, opt RunOptions) (*mapping.Mapping, stats.Result) {
	opt = opt.WithDefaults()
	nb := len(p.Rows)
	res := stats.Result{Mapper: p.Stat, Kernel: g.Name, Arch: a.Name, MII: mapping.MII(g, a)}
	mii := res.MII
	start := time.Now()
	w := p.Parallelism
	if w == 0 {
		w = nb
	}

	tr := opt.Tracer
	root := tr.StartSpan(nil, p.Span).
		WithStr("kernel", g.Name).WithStr("arch", a.Name).WithInt("mii", int64(mii))
	if p.Race {
		root.WithInt("backends", int64(nb))
	}
	defer root.End()
	run := opt.Obs.RunStart(g, a, p.Name, p.Stat, mii, "max_ii", opt.MaxII, "backends", nb, "window", w)

	laneOf := func(k int) (ii int, lane string) {
		if p.Race {
			lane = p.Rows[k%nb].Name
		}
		return mii + k/nb, lane
	}
	nLanes := max((opt.MaxII-mii+1)*nb, 0)
	tallies := make([]laneTally, nLanes)
	attempt := func(actx context.Context, k int) (laneOut, bool) {
		ii, lane := laneOf(k)
		b := p.Rows[k%nb]
		seed := SeedForII(opt.Seed, ii)
		if p.Race {
			seed = SeedForBackend(opt.Seed, b.Name, ii)
		}
		lopt := opt
		lopt.Obs = run.Lane(lane)
		t0 := time.Now()
		m, eff, ok := b.Attempt(actx, g, a, ii, seed, root, lopt)
		tallies[k] = laneTally{
			launched: true,
			// Torn down by a better lane's win, not by the caller.
			cancelled: actx.Err() != nil && ctx.Err() == nil,
			elapsedMS: time.Since(t0).Milliseconds(),
		}
		return laneOut{m: m, eff: eff}, ok
	}
	win, winLane, below, ok := Run(ctx, 0, nLanes-1, attempt, Options{
		Parallelism: w, Tracer: tr, Parent: root, Obs: run, Lane: laneOf,
	})

	// Merge effort in lane order: below holds every lane under the
	// winner ascending, and those lanes are never cancelled (Run's
	// contract), so the totals are deterministic at any width.
	for _, o := range below {
		res.Effort.Add(o.eff)
	}
	explored := len(below)
	winner := ""
	if ok {
		res.Effort.Add(win.eff)
		explored++
		res.Success = true
		res.II, winner = laneOf(winLane)
	}
	if !p.Race && explored > 0 {
		res.RemapIterations /= explored
	}
	res.Duration = time.Since(start)
	if p.Race {
		res.Portfolio = laneStats(p.Rows, tallies, winLane, winner, ok)
	}

	if winner != "" {
		root.WithStr("winner", winner)
	}
	run.RunEnd(res, winner)
	return win.m, res
}

// laneStats aggregates per-lane tallies into per-backend accounting.
// WinnerBackend and Won are deterministic; Launched, Cancelled and
// WastedMS are wall-clock accounting that varies with the width, like
// Duration.
func laneStats(rows []Backend, tallies []laneTally, winLane int, winner string, ok bool) *stats.PortfolioStats {
	nb := len(rows)
	per := make([]stats.BackendLanes, nb)
	for i, b := range rows {
		per[i].Backend = b.Name
		if ok && b.Name == winner {
			per[i].Won = 1
		}
	}
	for k, t := range tallies {
		if !t.launched {
			continue
		}
		bl := &per[k%nb]
		bl.Launched++
		if t.cancelled {
			bl.Cancelled++
		}
		// Wasted = wall-clock whose outcome was discarded: lanes above
		// the winner when one committed, cancelled lanes otherwise.
		if (ok && k > winLane) || (!ok && t.cancelled) {
			bl.WastedMS += t.elapsedMS
		}
	}
	return &stats.PortfolioStats{WinnerBackend: winner, PerBackend: per}
}
