package main

import (
	"strings"
	"testing"
)

func out(recs ...Record) Output { return Output{Date: "2026-08-06", Benchmarks: recs} }

func rec(name string, ns, allocs float64) Record {
	return Record{Name: name, Iterations: 1, Metrics: map[string]float64{"ns/op": ns, "allocs/op": allocs}}
}

func TestNoRegression(t *testing.T) {
	base := out(rec("BenchmarkA", 1000, 5), rec("BenchmarkZero", 40, 0))
	cur := out(rec("BenchmarkA", 1100, 5), rec("BenchmarkZero", 35, 0))
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("regs = %v, want none (+10%% is inside threshold)", regs)
	}
}

func TestNsOpRegression(t *testing.T) {
	base := out(rec("BenchmarkA", 1000, 5))
	cur := out(rec("BenchmarkA", 1200, 5))
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "ns/op" {
		t.Fatalf("regs = %v, want one ns/op regression (+20%%)", regs)
	}
}

func TestThresholdIsExclusive(t *testing.T) {
	base := out(rec("BenchmarkA", 1000, 5))
	cur := out(rec("BenchmarkA", 1150, 5))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("exactly +15%% must pass, got %v", regs)
	}
}

func TestZeroAllocPin(t *testing.T) {
	base := out(rec("BenchmarkTracerDisabled", 2, 0))
	cur := out(rec("BenchmarkTracerDisabled", 2, 1))
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("regs = %v, want the zero-alloc pin to fail", regs)
	}
	// Nonzero-baseline allocs may drift inside the threshold.
	base = out(rec("BenchmarkBig", 1000, 100))
	cur = out(rec("BenchmarkBig", 1000, 110))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("+10%% on a nonzero alloc baseline must pass, got %v", regs)
	}
}

func TestNonzeroAllocRegressionGated(t *testing.T) {
	// Past the threshold, a nonzero-baseline allocs/op jump is a real
	// regression: allocation counts are deterministic, not runner noise.
	base := out(rec("BenchmarkBig", 1000, 100))
	cur := out(rec("BenchmarkBig", 1000, 150))
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "allocs/op" {
		t.Fatalf("regs = %v, want one allocs/op regression (+50%%)", regs)
	}
	if s := regs[0].String(); strings.Contains(s, "zero-alloc pin") {
		t.Fatalf("nonzero-baseline regression mislabelled as a pin break: %s", s)
	}
	if !strings.Contains(strings.Join(notes, "\n"), "allocs/op") {
		t.Fatalf("notes missing the allocs/op delta:\n%s", strings.Join(notes, "\n"))
	}
	// Improvements are noted, never failed.
	cur = out(rec("BenchmarkBig", 1000, 40))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("an allocs/op improvement must pass, got %v", regs)
	}
}

func TestMissingBenchesTolerated(t *testing.T) {
	base := out(rec("BenchmarkGone", 1000, 0))
	cur := out(rec("BenchmarkNew", 1000, 0))
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 0 {
		t.Fatalf("missing benches must not regress, got %v", regs)
	}
	joined := strings.Join(notes, "\n")
	for _, want := range []string{"only in baseline: BenchmarkGone", "only in current: BenchmarkNew"} {
		if !strings.Contains(joined, want) {
			t.Errorf("notes missing %q:\n%s", want, joined)
		}
	}
}

func TestSelfDiffIsClean(t *testing.T) {
	base := out(rec("BenchmarkA", 1000, 5), rec("BenchmarkZero", 40, 0))
	if regs, _ := diff(base, base, 0.15); len(regs) != 0 {
		t.Fatalf("self diff regressed: %v", regs)
	}
}

func recM(name string, metrics map[string]float64) Record {
	return Record{Name: name, Iterations: 1, Metrics: metrics}
}

func TestBytesPerOpGated(t *testing.T) {
	// B/op regressions past the threshold fail even when allocs/op is
	// flat: the same number of allocations, each one bigger.
	base := out(recM("BenchmarkSubLower", map[string]float64{"ns/op": 1000, "allocs/op": 100, "B/op": 10000}))
	cur := out(recM("BenchmarkSubLower", map[string]float64{"ns/op": 1000, "allocs/op": 100, "B/op": 20000}))
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "B/op" {
		t.Fatalf("regs = %v, want one B/op regression (+100%%)", regs)
	}
	if !strings.Contains(strings.Join(notes, "\n"), "B/op") {
		t.Fatalf("notes missing the B/op delta:\n%s", strings.Join(notes, "\n"))
	}
	// Inside the threshold: noted, not failed.
	cur = out(recM("BenchmarkSubLower", map[string]float64{"ns/op": 1000, "allocs/op": 100, "B/op": 11000}))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("+10%% B/op must pass, got %v", regs)
	}
	// Improvements are never failed.
	cur = out(recM("BenchmarkSubLower", map[string]float64{"ns/op": 1000, "allocs/op": 100, "B/op": 4000}))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("a B/op improvement must pass, got %v", regs)
	}
}

func TestZeroBytesPin(t *testing.T) {
	// A zero-B/op baseline is a pin like zero allocs: any growth fails.
	base := out(recM("BenchmarkTracerDisabled", map[string]float64{"ns/op": 2, "allocs/op": 0, "B/op": 0}))
	cur := out(recM("BenchmarkTracerDisabled", map[string]float64{"ns/op": 2, "allocs/op": 0, "B/op": 16}))
	regs, _ := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "B/op" {
		t.Fatalf("regs = %v, want the zero-B/op pin to fail", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "pin broken") {
		t.Fatalf("pin break not labelled: %s", s)
	}
}

func TestCustomPerOpMetricGated(t *testing.T) {
	base := out(recM("BenchmarkSubRouter", map[string]float64{"ns/op": 1000, "expansions/op": 200}))
	cur := out(recM("BenchmarkSubRouter", map[string]float64{"ns/op": 1000, "expansions/op": 300}))
	regs, notes := diff(base, cur, 0.15)
	if len(regs) != 1 || regs[0].Metric != "expansions/op" {
		t.Fatalf("regs = %v, want one expansions/op regression (+50%%)", regs)
	}
	if !strings.Contains(strings.Join(notes, "\n"), "expansions/op") {
		t.Fatalf("notes missing the expansions/op delta:\n%s", strings.Join(notes, "\n"))
	}
	// Work is deterministic, so even +5% (inside the threshold) fails.
	cur = out(recM("BenchmarkSubRouter", map[string]float64{"ns/op": 1000, "expansions/op": 210}))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 1 {
		t.Fatalf("+5%% expansions/op must fail, got %v", regs)
	}
	// Less work, or the same, passes.
	for _, v := range []float64{200, 100} {
		cur = out(recM("BenchmarkSubRouter", map[string]float64{"ns/op": 1000, "expansions/op": v}))
		if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
			t.Fatalf("expansions/op %v against 200 must pass, got %v", v, regs)
		}
	}
}

// TestWorkMetricExactUnderLooseThreshold: CI runs benchdiff at
// -threshold 3.0 to absorb one-iteration ns/op noise; that threshold must
// not reach the work metrics, where +1% is a real regression.
func TestWorkMetricExactUnderLooseThreshold(t *testing.T) {
	base := out(recM("BenchmarkSubRouter", map[string]float64{"ns/op": 1000, "expansions/op": 4.78}))
	cur := out(recM("BenchmarkSubRouter", map[string]float64{"ns/op": 3900, "expansions/op": 4.78 * 1.01}))
	regs, _ := diff(base, cur, 3.0)
	if len(regs) != 1 || regs[0].Metric != "expansions/op" {
		t.Fatalf("regs = %v, want exactly the +1%% expansions/op regression (ns/op +290%% is inside 3.0)", regs)
	}
	if s := regs[0].String(); !strings.Contains(s, "4.78 -> 4.8278") {
		t.Fatalf("regression hides the fractional counts: %s", s)
	}
}

func TestCustomMetricOnlyInOneFileTolerated(t *testing.T) {
	// A metric added this PR has no baseline value; the diff must not
	// fail (nor crash) on the asymmetry. Quality metrics without the
	// "/op" suffix (sumII, fails) are never gated.
	base := out(recM("BenchmarkA", map[string]float64{"ns/op": 1000, "sumII": 30}))
	cur := out(recM("BenchmarkA", map[string]float64{"ns/op": 1000, "sumII": 45, "expansions/op": 50}))
	if regs, _ := diff(base, cur, 0.15); len(regs) != 0 {
		t.Fatalf("asymmetric/quality metrics must not regress, got %v", regs)
	}
}
