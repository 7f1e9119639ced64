package diag

import (
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/obs"
	"rewire/internal/stats"
)

// Observer is the run-scoped observer: it owns the boundary protocol of
// one mapping run and turns each run, II, attempt and round boundary
// into one call that feeds the structured logger, the post-mortem
// Collector and the progress Bus together (docs/OBSERVABILITY.md lists
// what each boundary emits). Phase spans and hot-path counters stay on
// the tracer.
//
// A nil *Observer is the disabled observer: every method is one pointer
// check with zero allocations, and the attempt handles it hands out are
// nil too. A live Observer is immutable, so concurrent attempts share
// it.
type Observer struct {
	lg   *obs.Logger
	dc   *Collector
	bus  *Bus
	lane string
}

// NewObserver builds the observer of a run from its public handles,
// any of which may be nil. With all three nil it returns nil, the
// disabled observer.
func NewObserver(lg *obs.Logger, dc *Collector, bus *Bus) *Observer {
	if lg == nil && dc == nil && bus == nil {
		return nil
	}
	return &Observer{lg: lg, dc: dc, bus: bus}
}

// RunStart opens a run of mapper (its canonical name; stat is its
// display name) on g and a: it records the run's identity, publishes
// run_start and logs "map start" with mii and the extra key-value
// pairs kv. It returns the run's observer, whose log records carry the
// mapper, kernel and arch.
func (o *Observer) RunStart(g *dfg.Graph, a *arch.CGRA, mapper, stat string, mii int, kv ...any) *Observer {
	if o == nil {
		return nil
	}
	r := *o
	r.lg = o.lg.With("mapper", mapper, "kernel", g.Name, "arch", a.Name)
	r.dc.begin(g, a, stat, mii)
	r.bus.Publish(Event{Type: "run_start", Mapper: mapper, Kernel: g.Name, Arch: a.Name, MII: mii})
	r.lg.Debug("map start", append([]any{"mii", mii}, kv...)...)
	return &r
}

// RunEnd closes a run with its result and the portfolio backend that
// won it (empty for a single mapper): it commits the outcome, publishes
// run_end and logs "mapped" or "mapping failed".
func (o *Observer) RunEnd(res stats.Result, winner string) {
	o.end(res, winner, false)
}

// Served records a run the result cache answered: the mappers never ran
// for this caller, so the run opens and closes at once on the served
// result, with no attempts, and the report is marked cached. It logs
// nothing; logging a served request is the server's business.
func (o *Observer) Served(g *dfg.Graph, a *arch.CGRA, mapper string, res stats.Result) {
	if o == nil {
		return
	}
	quiet := *o
	quiet.lg = nil
	winner := ""
	if res.Portfolio != nil {
		winner = res.Portfolio.WinnerBackend
	}
	quiet.RunStart(g, a, mapper, res.Mapper, res.MII).end(res, winner, true)
}

func (o *Observer) end(res stats.Result, winner string, cached bool) {
	if o == nil {
		return
	}
	o.dc.commit(res.Success, res.II, winner, cached)
	if !res.Success {
		o.bus.Publish(Event{Type: "run_end", Outcome: "failed"})
		o.lg.Warn("mapping failed", "mii", res.MII, "duration_ms", res.Duration.Milliseconds())
		return
	}
	o.bus.Publish(Event{Type: "run_end", II: res.II, Outcome: "ok", Lane: winner})
	o.lg.Info("mapped", "ii", res.II, "mii", res.MII, "winner", winner,
		"remaps", res.RemapIterations, "amendments", res.ClusterAmendments,
		"duration_ms", res.Duration.Milliseconds())
}

// IIStart records the launch of the sweep's attempt at ii (lane names
// the portfolio backend racing it; empty outside portfolio runs).
func (o *Observer) IIStart(ii int, lane string) {
	if o == nil {
		return
	}
	o.bus.Publish(Event{Type: "ii_start", II: ii, Lane: lane})
}

// IIEnd records the sweep receiving the outcome ("ok", "failed" or
// "cancelled") of the attempt at ii; a failed II is logged as exhausted.
func (o *Observer) IIEnd(ii int, lane, outcome string) {
	if o == nil {
		return
	}
	o.bus.Publish(Event{Type: "ii_end", II: ii, Lane: lane, Outcome: outcome})
	if outcome == "failed" && o.lg.On() {
		o.lg.Debug("ii exhausted", "ii", ii, "lane", lane)
	}
}

// Lane returns the observer of one portfolio lane: the attempts it
// starts carry the lane label in the report and on the bus. An empty
// lane returns o itself.
func (o *Observer) Lane(lane string) *Observer {
	if o == nil || lane == "" {
		return o
	}
	l := *o
	l.lane = lane
	return &l
}

// AttemptStart opens one attempt at ii — a Rewire initial-mapping draw,
// a PF* negotiation, an SA restart — numbered attempt within its II: it
// registers the attempt's post-mortem record and publishes
// attempt_start. The handle is nil (all its methods no-ops) when
// neither the collector nor the bus is live.
func (o *Observer) AttemptStart(ii, attempt int) *IIAttempt {
	if o == nil || (o.dc == nil && o.bus == nil) {
		return nil
	}
	o.bus.Publish(Event{Type: "attempt_start", II: ii, Attempt: attempt, Lane: o.lane})
	a := &IIAttempt{ii: ii, attempt: attempt, lane: o.lane, started: time.Now(), c: o.dc, bus: o.bus}
	o.dc.add(a)
	return a
}
