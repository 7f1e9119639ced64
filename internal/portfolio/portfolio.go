// Package portfolio races heterogeneous mapper backends — Rewire, PF*
// and SA — against each other per II under one shared budget. No single
// backend is fastest on every kernel shape; the portfolio's wall-clock
// is the minimum over its backends for each kernel, behind the same
// deterministic commit contract the speculative II sweep established.
//
// The package owns the static backend table, in fixed priority order,
// resolves names against it, and defines one mapping Request, which the
// public API, the eval harness and rewire-serve all resolve, fingerprint
// and run the same way. The race itself is sweep.Drive over
// the selected rows with racing on: lane k stands for II = MII + k/B and
// backend k%B, so "lowest feasible II wins, fixed backend priority
// breaks same-II ties" is exactly the sweep's in-order commit over lane
// indices, and the committed (II, backend, mapping) and the merged
// effort stats are bit-identical at every parallelism width, including
// width 1 (the priority-ordered serial schedule). Per-lane seeds come
// from sweep.SeedForBackend, so every lane is a pure function of (run
// seed, backend, II). See docs/CONCURRENCY.md, "Layer 4".
package portfolio

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"rewire/internal/arch"
	"rewire/internal/core"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/resultcache"
	"rewire/internal/sa"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

// table is the backend table in priority order, highest first: a tie
// at the same II commits the earliest row. Each row runs its mapper
// with the paper's default tuning.
var table = []sweep.Backend{
	core.Row(core.Options{}),
	pathfinder.Row(pathfinder.Options{}),
	sa.Row(sa.Options{}),
}

// Backends resolves a backend subset — aliases folded by
// resultcache.CanonicalMapper, duplicates dropped — into table rows in
// priority order. nil/empty selects every row. The subset's order never
// carries meaning: priority is fixed by the table, so "sa,rewire" and
// "rewire,sa" are the same portfolio.
func Backends(names []string) ([]sweep.Backend, error) {
	want := map[string]bool{}
	for _, n := range names {
		c, _ := resultcache.CanonicalMapper(n)
		if !slices.ContainsFunc(table, func(b sweep.Backend) bool { return b.Name == c }) {
			known := make([]string, len(table))
			for i, b := range table {
				known[i] = b.Name
			}
			return nil, &UnknownBackendError{Name: n, Known: known}
		}
		want[c] = true
	}
	var bs []sweep.Backend
	for _, b := range table {
		if len(names) == 0 || want[b.Name] {
			bs = append(bs, b)
		}
	}
	return bs, nil
}

// Canonical resolves a backend subset like Backends and returns it as
// the canonical comma-joined string used by fingerprints and flags.
func Canonical(names []string) (string, error) {
	bs, err := Backends(names)
	if err != nil {
		return "", err
	}
	parts := make([]string, len(bs))
	for i, b := range bs {
		parts[i] = b.Name
	}
	return strings.Join(parts, ","), nil
}

// ParseBackends splits a comma-separated backend list into names,
// dropping empty elements; "" yields nil (meaning all backends).
func ParseBackends(csv string) []string {
	if strings.TrimSpace(csv) == "" {
		return nil
	}
	var out []string
	for _, p := range strings.Split(csv, ",") {
		if p = strings.TrimSpace(p); p != "" {
			out = append(out, p)
		}
	}
	return out
}

// UnknownBackendError reports a backend name no table row answers to.
type UnknownBackendError struct {
	Name  string
	Known []string
}

func (e *UnknownBackendError) Error() string {
	return "portfolio: unknown backend \"" + e.Name + "\" (registered: " + strings.Join(e.Known, ", ") + ")"
}

// Plan looks mapper up in the table and returns its driver plan: the
// race over backends, with window laneWidth, for "portfolio"; otherwise
// the named backend (canonical or display name, any alias, "" for
// Rewire) alone, with window sweepWidth. backends is ignored by single
// mappers.
func Plan(mapper string, backends []string, sweepWidth, laneWidth int) (sweep.Plan, error) {
	name, ok := resultcache.CanonicalMapper(mapper)
	if !ok {
		return sweep.Plan{}, fmt.Errorf("unknown mapper %q (want rewire, pathfinder, sa or portfolio)", mapper)
	}
	if name != "portfolio" {
		bs, err := Backends([]string{name})
		if err != nil {
			return sweep.Plan{}, err
		}
		return sweep.Solo(bs[0], sweepWidth), nil
	}
	bs, err := Backends(backends)
	if err != nil {
		return sweep.Plan{}, err
	}
	return sweep.Plan{Name: "portfolio", Stat: "Portfolio", Span: "portfolio.map",
		Rows: bs, Race: true, Parallelism: laneWidth}, nil
}

// Request is one mapping request: the mapper and its budgets, seed and
// observers as the public API, the eval harness and rewire-serve each
// state them. Fingerprint and Map give it one meaning everywhere.
type Request struct {
	// Mapper names the mapper by canonical name or any alias; "" is
	// Rewire.
	Mapper string
	// Backends is a portfolio run's backend subset (see Backends);
	// ignored by the single mappers.
	Backends []string
	// SweepWidth and LaneWidth are the attempt windows of a single
	// mapper's II sweep and of the portfolio's race (see Plan). They
	// change wall-clock only, so they stay out of the fingerprint.
	SweepWidth, LaneWidth int
	sweep.RunOptions
}

// resolve looks the request up in the backend table: its driver plan
// and its fingerprint.
func (r Request) resolve() (sweep.Plan, resultcache.Request, error) {
	p, err := Plan(r.Mapper, r.Backends, r.SweepWidth, r.LaneWidth)
	if err != nil {
		return p, resultcache.Request{}, err
	}
	o := r.WithDefaults()
	fp := resultcache.Request{Mapper: p.Name, Seed: o.Seed, TimePerII: o.TimePerII, MaxII: o.MaxII}
	if p.Race {
		fp.Backends, _ = Canonical(r.Backends) // Plan resolved them
	}
	return p, fp, nil
}

// Fingerprint is the request's cache and ledger identity: its canonical
// mapper, its seed, its budgets with zero resolved to the driver's
// defaults (sweep.RunOptions.WithDefaults), and a portfolio's canonical
// backend subset. Equal effective requests get equal fingerprints
// whichever caller states them. It fails on a mapper or backend name no
// table row answers to.
func (r Request) Fingerprint() (resultcache.Request, error) {
	_, fp, err := r.resolve()
	return fp, err
}

// Map runs the request on g and a through cache: a stored or shared
// result is served (the run's observer records it with Served), a miss
// drives the plan (sweep.Drive) and stores a success. A nil cache always
// compiles. The error reports an unknown name, a wait that ctx cut
// short, or no mapping within the budgets.
func (r Request) Map(ctx context.Context, g *dfg.Graph, a *arch.CGRA, cache *resultcache.Cache) (*mapping.Mapping, stats.Result, resultcache.Outcome, error) {
	p, fp, err := r.resolve()
	if err != nil {
		return nil, stats.Result{}, resultcache.Outcome{}, err
	}
	m, res, out, err := cache.Do(ctx, resultcache.KeyFor(g, a, fp), func() (*mapping.Mapping, stats.Result) {
		return sweep.Drive(ctx, g, a, p, r.RunOptions)
	})
	if err != nil {
		return nil, res, out, fmt.Errorf("mapping %q on %s aborted: %w", g.Name, a.Name, err)
	}
	if out.Hit || out.Shared {
		// The mappers never ran for this caller.
		r.Obs.Served(g, a, p.Name, res)
	}
	if m == nil {
		return nil, res, out, fmt.Errorf("no valid mapping for %q on %s within II<=%d (MII=%d)",
			g.Name, a.Name, fp.MaxII, res.MII)
	}
	return m, res, out, nil
}
