// Command benchdiff compares two BENCH_<date>.json files (the
// scripts/benchjson format) and fails when the newer run regresses:
//
//   - ns/op worse than the baseline by more than -threshold (default
//     15%, absorbing CI-runner noise), or
//   - any custom per-op work metric (a "<unit>/op" key other than B/op
//     and allocs/op, e.g. the router's expansions/op) above its baseline
//     at all, whatever -threshold says: scripts/bench.sh runs the
//     micro-benchmarks at a fixed iteration count over fixed inputs, so
//     these counts are deterministic and any increase is an algorithm
//     change, never runner noise, or
//   - any allocs/op increase on a bench whose baseline allocs/op is 0 —
//     the zero-alloc pins (disabled tracer/logger/metrics hot paths)
//     must stay exactly zero, with no noise allowance, or
//   - allocs/op worse than a non-zero baseline by more than -threshold —
//     allocation counts are deterministic per op, so a jump past the
//     threshold is a real regression (a lost pool, a new per-op copy),
//     not runner noise, or
//   - B/op worse than a non-zero baseline by more than -threshold (or any
//     increase from a zero baseline) — bytes per op are as deterministic
//     as the allocation count, and catch the case where each allocation
//     quietly gets bigger while the count stays flat.
//
// Benchmarks present in only one file are reported but never fail the
// diff: renames and additions are routine between PRs.
//
// Usage:
//
//	benchdiff [-threshold 0.15] BASELINE.json CURRENT.json
//
// Exit status: 0 clean, 1 regression, 2 usage or parse error.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"sort"
	"strings"
)

// sortedKeys keeps the custom-metric notes and regressions in a stable
// order regardless of map iteration.
func sortedKeys(m map[string]float64) []string {
	ks := make([]string, 0, len(m))
	for k := range m {
		ks = append(ks, k)
	}
	sort.Strings(ks)
	return ks
}

// Record mirrors scripts/benchjson's per-benchmark output.
type Record struct {
	Name       string             `json:"name"`
	Iterations int64              `json:"iterations"`
	Metrics    map[string]float64 `json:"metrics"`
}

// Output mirrors scripts/benchjson's file format.
type Output struct {
	Date       string   `json:"date"`
	GoVersion  string   `json:"go,omitempty"`
	Benchmarks []Record `json:"benchmarks"`
}

// regression is one failed comparison.
type regression struct {
	Name   string
	Metric string
	Base   float64
	Cur    float64
}

func (r regression) String() string {
	switch {
	case (r.Metric == "allocs/op" || r.Metric == "B/op") && r.Base == 0:
		return fmt.Sprintf("%s: %s %g -> %g (zero-alloc pin broken)", r.Name, r.Metric, r.Base, r.Cur)
	case isWork(r.Metric):
		return fmt.Sprintf("%s: %s %g -> %g (%+.2f%%, work is gated exactly)", r.Name, r.Metric, r.Base, r.Cur, 100*(r.Cur-r.Base)/r.Base)
	}
	return fmt.Sprintf("%s: %s %.0f -> %.0f (%+.1f%%)", r.Name, r.Metric, r.Base, r.Cur, 100*(r.Cur-r.Base)/r.Base)
}

// isWork reports whether metric is a custom per-op work count, which
// benchdiff gates exactly.
func isWork(metric string) bool {
	return strings.HasSuffix(metric, "/op") && metric != "ns/op" && metric != "B/op" && metric != "allocs/op"
}

// diff compares current against baseline and returns every regression
// plus human-readable notes (missing/new benches, per-bench deltas).
func diff(base, cur Output, threshold float64) (regs []regression, notes []string) {
	curBy := make(map[string]Record, len(cur.Benchmarks))
	for _, b := range cur.Benchmarks {
		curBy[b.Name] = b
	}
	seen := make(map[string]bool, len(base.Benchmarks))
	for _, b := range base.Benchmarks {
		seen[b.Name] = true
		c, ok := curBy[b.Name]
		if !ok {
			notes = append(notes, fmt.Sprintf("only in baseline: %s", b.Name))
			continue
		}
		bNS, cNS := b.Metrics["ns/op"], c.Metrics["ns/op"]
		if bNS > 0 && cNS > 0 {
			delta := (cNS - bNS) / bNS
			notes = append(notes, fmt.Sprintf("%-44s ns/op %14.0f -> %14.0f  %+6.1f%%", b.Name, bNS, cNS, 100*delta))
			if delta > threshold {
				regs = append(regs, regression{b.Name, "ns/op", bNS, cNS})
			}
		}
		if bAllocs, ok := b.Metrics["allocs/op"]; ok {
			cAllocs := c.Metrics["allocs/op"]
			switch {
			case bAllocs == 0:
				// Zero-alloc pins get no noise allowance at all.
				if cAllocs > 0 {
					regs = append(regs, regression{b.Name, "allocs/op", bAllocs, cAllocs})
				}
			case cAllocs > 0:
				delta := (cAllocs - bAllocs) / bAllocs
				notes = append(notes, fmt.Sprintf("%-44s allocs/op %10.0f -> %10.0f  %+6.1f%%", b.Name, bAllocs, cAllocs, 100*delta))
				if delta > threshold {
					regs = append(regs, regression{b.Name, "allocs/op", bAllocs, cAllocs})
				}
			}
		}
		// B/op is as deterministic as allocs/op (bytes requested, not
		// heap growth), so gate it with the same threshold: a count of
		// allocations can stay flat while each one gets bigger.
		if bBytes, ok := b.Metrics["B/op"]; ok {
			cBytes := c.Metrics["B/op"]
			switch {
			case bBytes == 0:
				if cBytes > 0 {
					regs = append(regs, regression{b.Name, "B/op", bBytes, cBytes})
				}
			case cBytes > 0:
				delta := (cBytes - bBytes) / bBytes
				notes = append(notes, fmt.Sprintf("%-44s B/op %15.0f -> %15.0f  %+6.1f%%", b.Name, bBytes, cBytes, 100*delta))
				if delta > threshold {
					regs = append(regs, regression{b.Name, "B/op", bBytes, cBytes})
				}
			}
		}
		// Work counts get no tolerance: at a fixed iteration count they
		// are deterministic, so threshold does not apply.
		for _, m := range sortedKeys(b.Metrics) {
			if !isWork(m) {
				continue
			}
			bV := b.Metrics[m]
			cV, ok := c.Metrics[m]
			if !ok || bV <= 0 || cV <= 0 {
				continue
			}
			delta := (cV - bV) / bV
			notes = append(notes, fmt.Sprintf("%-44s %s %11.4g -> %11.4g  %+6.1f%%", b.Name, m, bV, cV, 100*delta))
			if cV > bV {
				regs = append(regs, regression{b.Name, m, bV, cV})
			}
		}
	}
	for _, c := range cur.Benchmarks {
		if !seen[c.Name] {
			notes = append(notes, fmt.Sprintf("only in current: %s", c.Name))
		}
	}
	return regs, notes
}

func load(path string) (Output, error) {
	var out Output
	f, err := os.Open(path)
	if err != nil {
		return out, err
	}
	defer f.Close()
	data, err := io.ReadAll(f)
	if err != nil {
		return out, err
	}
	if err := json.Unmarshal(data, &out); err != nil {
		return out, fmt.Errorf("%s: %w", path, err)
	}
	return out, nil
}

func main() {
	threshold := flag.Float64("threshold", 0.15, "ns/op, allocs/op and B/op regression tolerance (0.15 = +15%); work metrics are exact")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: benchdiff [-threshold 0.15] BASELINE.json CURRENT.json")
		os.Exit(2)
	}
	base, err := load(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}
	cur, err := load(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchdiff:", err)
		os.Exit(2)
	}

	regs, notes := diff(base, cur, *threshold)
	fmt.Printf("baseline %s (%s) vs current %s (%s), threshold +%.0f%%\n\n",
		flag.Arg(0), base.Date, flag.Arg(1), cur.Date, *threshold*100)
	for _, n := range notes {
		fmt.Println(n)
	}
	if len(regs) > 0 {
		fmt.Printf("\n%d regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Println("  FAIL", r)
		}
		os.Exit(1)
	}
	fmt.Println("\nno regressions")
}
