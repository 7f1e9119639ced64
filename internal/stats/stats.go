// Package stats defines the instrumentation record every mapper fills in:
// mapping quality (II vs MII), compilation effort (wall-clock time,
// single-node remapping iterations, router work) and Rewire-specific
// counters (cluster amendments, Placement(U) verification rate). The
// evaluation harness aggregates these into the paper's figures and
// tables.
package stats

import (
	"fmt"
	"time"
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

	// RemapIterations counts single-node remapping iterations for PF* and
	// SA (each iteration unmaps one node), matching Table I of the paper.
	// Its aggregation follows the run kind, which the caller picks (a
	// single mapper or the portfolio), never an option value: a
	// single-mapper run reports the mean per explored II (integer
	// division over the IIs at and below the commit), a portfolio run
	// the sum over its lanes (PF* remaps plus SA moves). Every other
	// effort counter below is summed over the explored attempts in both.
	RemapIterations int
	// ClusterAmendments counts Rewire's multi-node amendment rounds (one
	// per cluster mapped in one shot); Rewire's analogue of remapping.
	ClusterAmendments int
	// PlacementsTried counts candidate Placement(U) combinations Rewire
	// enumerated, and candidate evaluations for PF*/SA.
	PlacementsTried int64
	// VerifyAttempts / VerifySuccesses measure Rewire's Placement(U)
	// routing-verification success rate (the paper reports ~95%).
	VerifyAttempts  int64
	VerifySuccesses int64
	// RouterExpansions counts priority-queue pops in the router: a
	// hardware-independent proxy for routing work.
	RouterExpansions int64

	// Duration is the mapping wall-clock time.
	Duration time.Duration

	// Portfolio is the per-backend lane accounting of a portfolio run;
	// nil for single-mapper runs (whatever their width).
	Portfolio *PortfolioStats
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

// VerifyRate returns the Placement(U) verification success rate in
// [0,1], or 0 when nothing was verified.
func (r Result) VerifyRate() float64 {
	if r.VerifyAttempts == 0 {
		return 0
	}
	return float64(r.VerifySuccesses) / float64(r.VerifyAttempts)
}

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
