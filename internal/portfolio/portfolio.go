// Package portfolio races heterogeneous mapper backends — Rewire, PF*
// and SA — against each other per II under one shared budget. No single
// backend is fastest on every kernel shape; the portfolio's wall-clock
// is the minimum over its backends for each kernel, behind the same
// deterministic commit contract the speculative II sweep established.
//
// The package owns the static backend table, in fixed priority order,
// and resolves names against it. The race itself is sweep.Drive over
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
	"strings"

	"rewire/internal/core"
	"rewire/internal/pathfinder"
	"rewire/internal/sa"
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

// Backends resolves a backend subset — aliases folded, duplicates
// dropped — into table rows in priority order. nil/empty selects every
// row. The subset's order never carries meaning: priority is fixed by
// the table, so "sa,rewire" and "rewire,sa" are the same portfolio.
func Backends(names []string) ([]sweep.Backend, error) {
	want := map[string]bool{}
	for _, n := range names {
		c, ok := canonicalName(n)
		if !ok {
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

// canonicalName folds a backend name or alias, in any case, onto its
// table name.
func canonicalName(name string) (string, bool) {
	switch strings.ToLower(strings.TrimSpace(name)) {
	case "rewire":
		return "rewire", true
	case "pf", "pf*", "pathfinder":
		return "pathfinder", true
	case "sa":
		return "sa", true
	default:
		return "", false
	}
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
// the named backend (canonical or display name, any alias) alone, with
// window sweepWidth. backends is ignored by single mappers.
func Plan(mapper string, backends []string, sweepWidth, laneWidth int) (sweep.Plan, error) {
	if !strings.EqualFold(strings.TrimSpace(mapper), "portfolio") {
		bs, err := Backends([]string{mapper})
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
