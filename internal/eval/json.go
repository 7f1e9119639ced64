package eval

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
	"time"

	"rewire/internal/arch"
	"rewire/internal/stats"
)

// The JSON form of a full evaluation. Runs are serialised in canonical
// (combo, mapper) order with their eval-level mapper name spelled out,
// so a decoded Results answers Get() exactly like the original — the
// stats.Result.Mapper field alone is not enough ("Rewire(amend)" vs the
// harness key "Rewire").
type resultsJSON struct {
	Combos  []comboJSON `json:"combos"`
	Elapsed int64       `json:"elapsed_ns"`
	Runs    []runJSON   `json:"runs"`
}

type comboJSON struct {
	Kernel string `json:"kernel"`
	Arch   string `json:"arch"`
}

type runJSON struct {
	Mapper string       `json:"mapper"`
	Kernel string       `json:"kernel"`
	Arch   string       `json:"arch"`
	Result stats.Result `json:"result"`
}

// WriteJSON serialises the full result set — combos, elapsed wall-clock,
// every recorded run — as indented JSON. Runs from mappers outside the
// paper's three (e.g. "Portfolio") are serialised after them, so a
// filtered evaluation round-trips losslessly.
func (r *Results) WriteJSON(w io.Writer) error {
	out := resultsJSON{Elapsed: int64(r.Elapsed)}
	mappers := r.mapperOrder()
	for _, cb := range r.Combos {
		out.Combos = append(out.Combos, comboJSON{Kernel: cb.Kernel, Arch: cb.Arch.Name})
		for _, mapper := range mappers {
			if res, ok := r.Get(mapper, cb); ok {
				out.Runs = append(out.Runs, runJSON{
					Mapper: mapper, Kernel: cb.Kernel, Arch: cb.Arch.Name, Result: res,
				})
			}
		}
	}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(out)
}

// mapperOrder lists every mapper with at least one recorded run: the
// paper's three in report order first, then any extras (sorted) such as
// "Portfolio".
func (r *Results) mapperOrder() []string {
	known := make(map[string]bool, len(Mappers))
	var out []string
	for _, m := range Mappers {
		known[m] = true
		out = append(out, m)
	}
	var extra []string
	seen := map[string]bool{}
	for key := range r.ByRun {
		m := key[:strings.Index(key, "|")]
		if !known[m] && !seen[m] {
			seen[m] = true
			extra = append(extra, m)
		}
	}
	sort.Strings(extra)
	return append(out, extra...)
}

// ResultsFromJSON decodes a WriteJSON document back into a Results,
// rebuilding each architecture from its "RxCrN" name (4x4 and 8x8 names
// resolve to the paper presets with their memory configuration).
func ResultsFromJSON(data []byte) (*Results, error) {
	var in resultsJSON
	if err := json.Unmarshal(data, &in); err != nil {
		return nil, fmt.Errorf("eval: decode results: %w", err)
	}
	archs := map[string]*arch.CGRA{}
	lookup := func(name string) (*arch.CGRA, error) {
		if a, ok := archs[name]; ok {
			return a, nil
		}
		a, err := arch.ParseName(name)
		if err != nil {
			return nil, err
		}
		archs[name] = a
		return a, nil
	}
	out := &Results{
		ByRun:   make(map[string]stats.Result, len(in.Runs)),
		Elapsed: time.Duration(in.Elapsed),
	}
	for _, cb := range in.Combos {
		a, err := lookup(cb.Arch)
		if err != nil {
			return nil, err
		}
		out.Combos = append(out.Combos, Combo{Kernel: cb.Kernel, Arch: a})
	}
	for _, run := range in.Runs {
		a, err := lookup(run.Arch)
		if err != nil {
			return nil, err
		}
		out.ByRun[runKey(run.Mapper, Combo{Kernel: run.Kernel, Arch: a})] = run.Result
	}
	return out, nil
}
