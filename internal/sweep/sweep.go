// Package sweep implements the one mapper driver (Drive) and the
// speculative initiation-interval sweep engine (Run) it wraps. Drive
// owns the run lifecycle of every mapper — Rewire, PF*, SA and the
// portfolio — over rows of a static backend table; a single mapper is
// a one-row run, the portfolio the same call with racing on. An II sweep
// explores II = MII, MII+1, ... until one II admits a valid mapping;
// the attempts are independent until one succeeds, so a bounded window
// of them may run concurrently. The engine launches up to Parallelism
// attempts at the lowest unresolved IIs, slides the window upward as
// low IIs fail, cancels every attempt above an II that succeeded (their
// outcome can no longer matter), and commits deterministically: the
// committed result is always the lowest feasible II's, and attempts at
// or below the committed II are never cancelled, so they run exactly as
// the serial sweep would.
//
// Determinism contract: an Attempt must be a pure function of its II —
// derive all randomness via SeedForII, own all mutable state, and share
// only immutable inputs with concurrent attempts. Under that contract
// the committed (II, result) and the ordered list of failed results
// below it are bit-identical at every Parallelism, including 1 (the
// serial sweep). See docs/CONCURRENCY.md, "Layer 3".
package sweep

import (
	"context"
	"time"

	"rewire/internal/diag"
	"rewire/internal/trace"
)

// Attempt runs one II attempt and reports whether the II is feasible.
// ctx is cancelled when the attempt's outcome can no longer be
// committed (a lower II succeeded, or the whole run was cancelled); a
// cancelled attempt should return promptly — poll via a Pacer — and its
// result is discarded either way.
type Attempt[R any] func(ctx context.Context, ii int) (R, bool)

// Options tunes one sweep.
type Options struct {
	// Parallelism is the speculative window width: how many II attempts
	// may run concurrently. 0 or 1 is the serial sweep (still executed
	// through the engine, so instrumentation and cancellation behave
	// identically).
	Parallelism int
	// Tracer receives the sweep span, one sweep.attempt span per attempt,
	// and the sweep.* work counters. nil disables tracing.
	Tracer *trace.Tracer
	// Parent is the span the sweep span nests under (usually the
	// mapper's root span). nil with a non-nil Tracer makes it a root.
	Parent *trace.Span
	// Obs records one II start per launched attempt and one II end per
	// received result (see diag.Observer). nil disables both at one
	// pointer check per boundary.
	Obs *diag.Observer
	// Lane maps an attempt index onto the (II, lane label) it stands
	// for. The engine sweeps a contiguous index range and by default an
	// index is its own II with an empty lane label; Drive flattens (II,
	// backend) pairs onto indices and installs Lane so spans and progress
	// events report the real II and, when racing, the backend label
	// instead of the raw index. nil is the identity.
	Lane func(i int) (ii int, lane string)
}

// slot is one in-flight or finished attempt.
type slot[R any] struct {
	ii         int
	cancel     context.CancelFunc
	cancelSent bool
	val        R
	ok         bool
	elapsed    time.Duration
}

// Run sweeps ii = lo..hi through attempt and commits the lowest
// feasible II. It returns the committed value and II, the failed values
// of every II below the committed one in ascending order, and whether
// any II succeeded (on failure, below holds every attempted II's value
// lo..hi ascending). Cancelling ctx aborts the sweep: in-flight
// attempts are cancelled, drained, and the sweep reports failure.
func Run[R any](ctx context.Context, lo, hi int, attempt Attempt[R], opt Options) (winner R, winnerII int, below []R, ok bool) {
	var zero R
	if hi < lo {
		return zero, 0, nil, false
	}
	w := opt.Parallelism
	if w < 1 {
		w = 1
	}
	if span := hi - lo + 1; w > span {
		w = span
	}

	tr := opt.Tracer
	launchedCtr := tr.Counter("sweep.attempts")
	specCtr := tr.Counter("sweep.speculative")
	cancelCtr := tr.Counter("sweep.cancelled")
	wastedCtr := tr.Counter("sweep.wasted_ms")
	laneOf := func(i int) (int, string) {
		if opt.Lane != nil {
			return opt.Lane(i)
		}
		return i, ""
	}
	loII, _ := laneOf(lo)
	hiII, _ := laneOf(hi)
	sweepSpan := tr.StartSpan(opt.Parent, "sweep").
		WithInt("lo", int64(loII)).WithInt("hi", int64(hiII)).WithInt("window", int64(w))

	results := make(chan *slot[R])
	pending := map[int]*slot[R]{} // launched, result not yet received
	done := map[int]*slot[R]{}    // received, not yet consumed in II order
	next := lo                    // next II to launch
	resolve := lo                 // lowest unresolved II
	lowestOK := hi + 1            // lowest II known feasible so far

	launch := func(ii int) {
		actx, cancel := context.WithCancel(ctx)
		s := &slot[R]{ii: ii, cancel: cancel}
		pending[ii] = s
		launchedCtr.Add(1)
		eventII, lane := laneOf(ii)
		opt.Obs.IIStart(eventII, lane)
		if ii > resolve {
			specCtr.Add(1)
		}
		go func() {
			t0 := time.Now()
			asp := tr.StartSpan(sweepSpan, "sweep.attempt").WithInt("ii", int64(eventII))
			if lane != "" {
				asp.WithStr("lane", lane)
			}
			s.val, s.ok = attempt(actx, ii)
			s.elapsed = time.Since(t0)
			asp.WithBool("ok", s.ok).WithBool("cancelled", actx.Err() != nil).End()
			results <- s
		}()
	}
	// cancelAbove signals every in-flight attempt above ii; the engine
	// still drains their results (no goroutine outlives Run).
	cancelAbove := func(ii int) {
		for pi, p := range pending {
			if pi > ii && !p.cancelSent {
				p.cancelSent = true
				p.cancel()
				cancelCtr.Add(1)
			}
		}
	}
	// drainWasted awaits every in-flight attempt and books the wall-clock
	// of each discarded outcome, done leftovers included.
	drainWasted := func() {
		for len(pending) > 0 {
			s := <-results
			delete(pending, s.ii)
			eventII, lane := laneOf(s.ii)
			opt.Obs.IIEnd(eventII, lane, "cancelled")
			wastedCtr.Add(s.elapsed.Milliseconds())
		}
		for _, s := range done {
			wastedCtr.Add(s.elapsed.Milliseconds())
		}
	}

	for {
		// Consume strictly in II order, so the commit decision never
		// depends on completion order. Consuming before topping up keeps
		// the resolve cursor honest: a freshly received result advances it
		// before the next launch is classified as speculative or not.
		if s, have := done[resolve]; have {
			delete(done, resolve)
			if s.ok {
				cancelAbove(s.ii)
				drainWasted()
				committedII, committedLane := laneOf(s.ii)
				sweepSpan.WithInt("committed_ii", int64(committedII)).WithBool("ok", true)
				if committedLane != "" {
					sweepSpan.WithStr("lane", committedLane)
				}
				sweepSpan.End()
				return s.val, s.ii, below, true
			}
			below = append(below, s.val)
			resolve++
			continue
		}

		// Top up the window with the lowest IIs that can still matter: at
		// most w in flight, never above a known-feasible II, none once the
		// caller cancelled the whole sweep.
		if ctx.Err() == nil {
			ceil := hi
			if lowestOK-1 < ceil {
				ceil = lowestOK - 1
			}
			for len(pending) < w && next <= ceil {
				launch(next)
				next++
			}
		}

		if len(pending) == 0 {
			// Nothing in flight and nothing consumable: either every II in
			// [lo, hi] failed, or the caller cancelled the sweep before the
			// remaining IIs launched.
			drainWasted()
			sweepSpan.WithBool("ok", false).End()
			return zero, 0, below, false
		}

		s := <-results
		delete(pending, s.ii)
		done[s.ii] = s
		eventII, lane := laneOf(s.ii)
		opt.Obs.IIEnd(eventII, lane, diag.Outcome(s.ok, s.cancelSent))
		if s.ok && s.ii < lowestOK {
			lowestOK = s.ii
			// Attempts above a feasible II are moot; attempts at or below
			// it keep running untouched (one of them is the commit).
			cancelAbove(s.ii)
		}
	}
}
