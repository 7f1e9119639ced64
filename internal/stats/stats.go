// Package stats defines the instrumentation record every mapper fills in:
// mapping quality (II vs MII), compilation effort (wall-clock time,
// single-node remapping iterations, router work) and Rewire-specific
// counters (cluster amendments, Placement(U) verification rate). The
// evaluation harness aggregates these into the paper's figures and
// tables.
//
// Effort is the one work tally behind both the Result's effort fields
// and the tracer's work counters.
package stats

import (
	"fmt"
	"time"

	"rewire/internal/trace"
)

// Result records one mapping run.
type Result struct {
	// Mapper, Kernel and Arch identify the run.
	Mapper string
	Kernel string
	Arch   string

	// Success reports whether a valid mapping was found.
	Success bool
	// II is the achieved initiation interval (meaningful when Success).
	II int
	// MII is the theoretical minimum II for this kernel/architecture.
	MII int

	// Effort is the run's work: the sum of the explored attempts'
	// tallies (see Effort for how RemapIterations aggregates).
	Effort

	// Duration is the mapping wall-clock time.
	Duration time.Duration

	// Portfolio is the per-backend lane accounting of a portfolio run;
	// nil for single-mapper runs (whatever their width).
	Portfolio *PortfolioStats
}

// Effort is one II attempt's work tally. Each mapper owns one per
// attempt and adds to it with plain increments (an attempt is
// single-goroutine), and each router adds its Expansions once, when it
// retires. Fill copies an ended attempt's tally into the tracer's work
// counters, and Add folds the explored attempts' tallies into the run's
// Result, so each unit of work is counted in one place.
//
// The first six fields are the Result's effort columns (and eval's
// -json keys); the rest have no column and reach only the tracer.
type Effort struct {
	// RemapIterations counts single-node remapping iterations for PF* and
	// SA (each iteration unmaps one node), matching Table I of the paper.
	// An attempt's tally holds that attempt's count. A run's aggregation
	// follows the run kind, which the caller picks (a single mapper or
	// the portfolio), never an option value: a single-mapper run reports
	// the mean per explored II (integer division over the IIs at and
	// below the commit), a portfolio run the sum over its lanes (PF*
	// remaps plus SA moves). Every other field is summed over the
	// explored attempts in both.
	RemapIterations int
	// ClusterAmendments counts Rewire's multi-node amendment rounds (one
	// per cluster mapped in one shot); Rewire's analogue of remapping.
	ClusterAmendments int
	// PlacementsTried counts candidate Placement(U) combinations Rewire
	// enumerated, and candidate evaluations for PF*/SA.
	PlacementsTried int64
	// VerifyAttempts / VerifySuccesses measure Rewire's Placement(U)
	// routing-verification success rate (the paper reports ~95%) over
	// the routed trials; forward-rejected trials (ForwardRejected) are
	// not routed and not counted here.
	VerifyAttempts  int64
	VerifySuccesses int64
	// RouterExpansions counts priority-queue pops in the router: a
	// hardware-independent proxy for routing work.
	RouterExpansions int64

	// PlacementsPruned counts Rewire's enumerated placements rejected
	// before routing (execution-cycle pruning or an occupied slot).
	PlacementsPruned int64 `json:"-"`
	// ForwardRejected counts Rewire's placed trials unplaced before
	// routing because the next cluster node had no admissible, placeable
	// candidate left (the one-step forward check). Each is charged to the
	// MaxCombos budget like a routed trial.
	ForwardRejected int64 `json:"-"`
	// PropagateTuples / TuplesDeduped count the propagation tuples
	// Rewire's probe floods kept and the ones the per-(PE, cycles) rule
	// suppressed.
	PropagateTuples int64 `json:"-"`
	TuplesDeduped   int64 `json:"-"`
	// PCandidates counts the placement candidates Rewire's intersection
	// (Eq. 1) left over all cluster nodes.
	PCandidates int64 `json:"-"`
}

// Add folds another tally into e.
func (e *Effort) Add(o Effort) {
	e.RemapIterations += o.RemapIterations
	e.ClusterAmendments += o.ClusterAmendments
	e.PlacementsTried += o.PlacementsTried
	e.VerifyAttempts += o.VerifyAttempts
	e.VerifySuccesses += o.VerifySuccesses
	e.RouterExpansions += o.RouterExpansions
	e.PlacementsPruned += o.PlacementsPruned
	e.ForwardRejected += o.ForwardRejected
	e.PropagateTuples += o.PropagateTuples
	e.TuplesDeduped += o.TuplesDeduped
	e.PCandidates += o.PCandidates
}

// Fill adds an ended attempt's tally to tr's work counters; a nil tracer
// makes it a no-op. Every mapper fills placements.tried and
// route.expansions. remaps names the counter RemapIterations fills
// ("pf.remaps" for PF* and for the PF* initial mappings Rewire amends,
// "sa.moves" for SA, "" for none), and amendment adds the amendment
// engine's eight counters. Each backend thus emits a fixed counter set,
// zero values included (docs/OBSERVABILITY.md).
func (e *Effort) Fill(tr *trace.Tracer, remaps string, amendment bool) {
	if !tr.Enabled() {
		return
	}
	tr.Counter("placements.tried").Add(e.PlacementsTried)
	tr.Counter("route.expansions").Add(e.RouterExpansions)
	if remaps != "" {
		tr.Counter(remaps).Add(int64(e.RemapIterations))
	}
	if !amendment {
		return
	}
	tr.Counter("cluster.amendments").Add(int64(e.ClusterAmendments))
	tr.Counter("verify.attempts").Add(e.VerifyAttempts)
	tr.Counter("verify.successes").Add(e.VerifySuccesses)
	tr.Counter("placements.pruned").Add(e.PlacementsPruned)
	tr.Counter("placements.forward_rejected").Add(e.ForwardRejected)
	tr.Counter("propagate.tuples").Add(e.PropagateTuples)
	tr.Counter("propagate.tuples_deduped").Add(e.TuplesDeduped)
	tr.Counter("intersect.pcandidates").Add(e.PCandidates)
}

// PortfolioStats describes one portfolio run: which backend's lane won
// and what every backend's lanes cost. WinnerBackend is deterministic
// (a pure function of seed, backends, and kernel); the lane tallies are
// wall-clock accounting and vary with parallelism width, like Duration.
type PortfolioStats struct {
	// WinnerBackend is the canonical name of the backend whose lane
	// produced the committed mapping; empty when the portfolio failed.
	WinnerBackend string
	// PerBackend holds one entry per racing backend in priority order.
	PerBackend []BackendLanes
}

// BackendLanes is one backend's lane accounting across a portfolio run.
type BackendLanes struct {
	// Backend is the canonical backend name ("rewire", "pathfinder", "sa").
	Backend string
	// Launched counts lanes started; Won is 1 for the winning backend;
	// Cancelled counts lanes torn down early because a better lane
	// committed first.
	Launched  int
	Won       int
	Cancelled int
	// WastedMS is the wall-clock spent on this backend's discarded lanes.
	WastedMS int64
}

// Optimal reports whether the mapping achieved the theoretical MII.
func (r Result) Optimal() bool { return r.Success && r.II == r.MII }

// NearOptimal reports whether the mapping is within one of MII (the
// paper's "near-optimal" criterion includes optimal).
func (r Result) NearOptimal() bool { return r.Success && r.II-r.MII <= 1 }

// String gives a compact one-line summary.
func (r Result) String() string {
	status := fmt.Sprintf("II=%d (MII=%d)", r.II, r.MII)
	if !r.Success {
		status = fmt.Sprintf("FAILED (MII=%d)", r.MII)
	}
	s := fmt.Sprintf("%-8s %-12s %-8s %s  %8.1fms  remaps=%d amendments=%d",
		r.Mapper, r.Kernel, r.Arch, status,
		float64(r.Duration.Microseconds())/1000, r.RemapIterations, r.ClusterAmendments)
	if r.Portfolio != nil && r.Portfolio.WinnerBackend != "" {
		s += " winner=" + r.Portfolio.WinnerBackend
	}
	return s
}
