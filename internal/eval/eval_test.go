package eval

import (
	"bytes"
	"fmt"
	"strings"
	"testing"
	"time"

	"rewire/internal/kernels"
	"rewire/internal/stats"
)

func TestCombosMatchPaperCount(t *testing.T) {
	cs := Combos()
	if len(cs) != 47 {
		t.Fatalf("combos = %d, want the paper's 47", len(cs))
	}
	// Every referenced kernel must exist.
	for _, cb := range cs {
		if _, err := kernels.Get(cb.Kernel); err != nil {
			t.Errorf("combo references unknown kernel: %v", err)
		}
	}
	// All four architectures present.
	archs := map[string]int{}
	for _, cb := range cs {
		archs[cb.Arch.Name]++
	}
	for _, name := range []string{"4x4r4", "8x8r4", "4x4r2", "4x4r1"} {
		if archs[name] == 0 {
			t.Errorf("no combos on %s", name)
		}
	}
	// Table I's list is the 4x4r1 set.
	if archs["4x4r1"] != 8 {
		t.Errorf("4x4r1 combos = %d, want 8 (Table I set)", archs["4x4r1"])
	}
}

func TestMIIOfSaneBounds(t *testing.T) {
	for _, cb := range Combos() {
		mii := MIIOf(cb)
		if mii < 1 || mii > 20 {
			t.Errorf("%s on %s: MII = %d out of sane range", cb.Kernel, cb.Arch.Name, mii)
		}
	}
}

func TestRunSingleCombo(t *testing.T) {
	cb := Combo{Kernel: "mvt", Arch: Combos()[0].Arch}
	m, res := Run("PF*", cb, Config{Seed: 1, TimePerII: 2 * time.Second})
	if m == nil || !res.Success {
		t.Fatalf("PF* failed on an easy combo: %v", res)
	}
	if res.Mapper != "PF*" || res.Kernel != "mvt" {
		t.Fatalf("result mislabelled: %v", res)
	}
}

func TestRunUnknownMapperPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	Run("nope", Combos()[0], Config{})
}

// fakeResults builds a Results with synthetic data so the report
// formatting is testable without hours of mapping.
func fakeResults() *Results {
	r := &Results{Combos: Combos(), ByRun: map[string]stats.Result{}}
	for i, cb := range r.Combos {
		mii := 2
		for mi, m := range Mappers {
			res := stats.Result{
				Mapper: m, Kernel: cb.Kernel, Arch: cb.Arch.Name,
				Success: true, MII: mii, II: mii + mi, // Rewire best, SA worst
				Duration: time.Duration(1+mi) * 10 * time.Millisecond,
				Effort: stats.Effort{
					RemapIterations: 100 * mi,
					VerifyAttempts:  20, VerifySuccesses: 19, ForwardRejected: 5,
				},
			}
			if m == "SA" && i%5 == 0 {
				res.Success = false // sprinkle SA failures
			}
			r.ByRun[runKey(m, cb)] = res
		}
	}
	return r
}

func TestReportSections(t *testing.T) {
	r := fakeResults()
	var buf bytes.Buffer
	r.Report(&buf)
	out := buf.String()
	for _, want := range []string{
		"Figure 5", "Figure 6", "Table I", "Summary",
		"4x4r4", "8x8r4", "4x4r2", "4x4r1",
		"Rewire vs PF*", "Rewire vs SA",
		"verification success: 95.0%",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q", want)
		}
	}
	// SA failures rendered as '-' in Figure 5.
	if !strings.Contains(out, "-") {
		t.Error("failed runs must render as '-'")
	}
}

func TestGeomeanSpeedup(t *testing.T) {
	r := fakeResults()
	// Rewire II = MII, PF* = MII+1 everywhere: speedup = (mii+1)/mii = 1.5
	// at mii=2.
	got := r.geomeanSpeedup("PF*")
	if got < 1.49 || got > 1.51 {
		t.Fatalf("speedup = %v, want 1.5", got)
	}
	// Compile time: PF* 20ms vs Rewire 10ms -> 2.0x.
	ct := r.geomeanTimeReduction("PF*")
	if ct < 1.99 || ct > 2.01 {
		t.Fatalf("time reduction = %v, want 2.0", ct)
	}
}

func TestSummaryCountsOptimal(t *testing.T) {
	r := fakeResults()
	var buf bytes.Buffer
	r.Summary(&buf)
	if !strings.Contains(buf.String(), "optimal: 47, optimal-or-near-optimal: 47") {
		t.Fatalf("summary counts wrong:\n%s", buf.String())
	}
}

// TestSummaryRewireOnly checks the summary of an evaluation filtered to
// Rewire (rewire-experiments -mapper rewire): the baselines that never
// ran get no failure count and no comparison line.
func TestSummaryRewireOnly(t *testing.T) {
	r := fakeResults()
	for k := range r.ByRun {
		if !strings.HasPrefix(k, "Rewire|") {
			delete(r.ByRun, k)
		}
	}
	var buf bytes.Buffer
	r.Summary(&buf)
	want := "== Summary (paper §V-A / §V-B claims) ==\n" +
		"combos: 47\n" +
		"Rewire optimal: 47, optimal-or-near-optimal: 47 (paper: 38/47)\n" +
		"Rewire   failed combos: 0\n" +
		"Rewire Placement(U) verification success: 95.0% of 940 routed trials (paper: ~95%); 235 more forward-rejected before routing\n\n"
	if got := buf.String(); got != want {
		t.Fatalf("Rewire-only summary:\n%s\nwant:\n%s", got, want)
	}
}

// TestTable1RewireOnly checks that Table I prints "-" for the baselines
// of an evaluation filtered to Rewire, not zero remap iterations, and
// still prints every count when all three mappers ran.
func TestTable1RewireOnly(t *testing.T) {
	row := func(pf, sa, rw string) string {
		return fmt.Sprintf("%-12s %6s %6s %14s\n", "atax", pf, sa, rw)
	}
	r := fakeResults()
	var buf bytes.Buffer
	r.Table1(&buf)
	if want := row("100", "200", "0"); strings.Count(buf.String(), want) != 2 {
		t.Fatalf("three-mapper Table I lacks %q on both fabrics:\n%s", want, buf.String())
	}
	for k := range r.ByRun {
		if !strings.HasPrefix(k, "Rewire|") {
			delete(r.ByRun, k)
		}
	}
	buf.Reset()
	r.Table1(&buf)
	if want := row("-", "-", "0"); strings.Count(buf.String(), want) != 2 {
		t.Fatalf("Rewire-only Table I lacks %q on both fabrics:\n%s", want, buf.String())
	}
}

// TestSummaryAllMappers pins the three-mapper summary text, which the
// Rewire-only filtering must leave unchanged.
func TestSummaryAllMappers(t *testing.T) {
	var buf bytes.Buffer
	fakeResults().Summary(&buf)
	want := "== Summary (paper §V-A / §V-B claims) ==\n" +
		"combos: 47\n" +
		"Rewire optimal: 47, optimal-or-near-optimal: 47 (paper: 38/47)\n" +
		"Rewire   failed combos: 0\n" +
		"PF*      failed combos: 0\n" +
		"SA       failed combos: 10\n" +
		"Rewire vs PF*   performance speedup: 1.50x   compile-time reduction: 2.00x\n" +
		"Rewire vs SA    performance speedup: 2.00x   compile-time reduction: 3.00x\n" +
		"Rewire Placement(U) verification success: 95.0% of 940 routed trials (paper: ~95%); 235 more forward-rejected before routing\n\n"
	if got := buf.String(); got != want {
		t.Fatalf("three-mapper summary:\n%s\nwant:\n%s", got, want)
	}
}
