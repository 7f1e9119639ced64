package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

func TestJudgeVerdicts(t *testing.T) {
	bound := 0.1
	exact := 0.001
	parent := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64) []float64 {
		out := make([]float64, len(parent))
		for i, v := range parent {
			out[i] = v * f
		}
		return out
	}
	for _, tc := range []struct {
		name        string
		parent      []float64
		change      []float64
		lowerBetter bool
		bound       *float64
		want        string
	}{
		{"faster in every pair", parent, scaled(0.8), true, &bound, "improved"},
		{"higher is better", parent, scaled(1.2), false, &bound, "improved"},
		{"within the bound", parent, scaled(1.05), true, &bound, "unchanged"},
		{"past the bound", parent, scaled(1.2), true, &bound, "worse"},
		{"noisy parent", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scaled(1.05), true, &bound, "unresolved"},
		{"noisy parent, change beats every run", []float64{60, 140, 80, 120, 100, 70, 130, 90, 110, 100}, scaled(0.5), true, &bound, "improved"},
		{"exact metric unchanged", []float64{1.25, 1.25, 1.25}, []float64{1.25, 1.25, 1.25}, true, &exact, "unchanged"},
		{"exact metric one II worse", []float64{1.25, 1.25, 1.25}, []float64{1.26, 1.26, 1.26}, true, &exact, "worse"},
		{"wins too few pairs", parent, []float64{80, 80, 80, 80, 80, 80, 80, 80, 120, 120}, true, &bound, "unchanged"},
		{"per-layer count down", parent, scaled(0.5), true, nil, "improved"},
		{"per-layer count up", parent, scaled(1.5), true, nil, "worse"},
		{"per-layer noise", parent, scaled(1.001), true, nil, "no claim"},
	} {
		if got := judge(tc.parent, tc.change, tc.lowerBetter, tc.bound).verdict; got != tc.want {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.want)
		}
	}
}

func TestJudgeCountsTiesForNeither(t *testing.T) {
	j := judge([]float64{1, 1, 1, 1}, []float64{1, 1, 0.5, 0.5}, true, nil)
	if j.winShare != 0.5 {
		t.Fatalf("win share %v, want 0.5", j.winShare)
	}
}

func TestReadRunParsesHeaderAndResultLine(t *testing.T) {
	dir := t.TempDir()
	out := "# rewire-bench workload=serve-mix seed=7 seconds=20 trace=0\n" +
		"# digest 0123abcd\n" +
		"setup_s 1.2 s n=3\n" +
		`{"correct":true,"attempted":3,"failed":0,"metrics":{"setup_s":{"value":1.2,"unit":"s"}}}` + "\n"
	if err := os.WriteFile(filepath.Join(dir, "run.txt"), []byte(out), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "notes.txt"), []byte("not a run\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	runs, err := readRuns(dir)
	if err != nil || len(runs) != 1 {
		t.Fatalf("readRuns = %v, %v; want one run", runs, err)
	}
	r := runs[0]
	if r.workload != "serve-mix" || r.seed != 7 || r.trace != 0 || r.digest != "0123abcd" || r.res.Metrics["setup_s"].Value != 1.2 {
		t.Fatalf("parsed %+v", r)
	}
}

func TestCompareFailsWhenRunsOfOneSideDisagreeOnDigest(t *testing.T) {
	bound := 0.25
	sp := &spec{EndToEnd: []specMetric{{Name: "setup_s", Unit: "s", Better: "lower", Bound: &bound}}}
	runs := func(digests ...string) []savedRun {
		var out []savedRun
		for i, d := range digests {
			out = append(out, savedRun{workload: "rewire-4x4", seed: int64(i + 1), digest: d,
				res: result{Correct: true, Attempted: 1, Metrics: map[string]metric{"setup_s": {Value: 1, Unit: "s"}}}})
		}
		return out
	}
	for _, tc := range []struct {
		name           string
		parent, change []savedRun
		want           int
	}{
		{"every run agrees", runs("aa", "aa"), runs("aa", "aa"), 0},
		{"change runs disagree", runs("aa", "aa"), runs("aa", "bb"), 1},
		{"parent runs disagree", runs("aa", "bb"), runs("aa", "aa"), 1},
		// A change may compile different results; its deterministic
		// metrics judge whether they are worse.
		{"change compiles other results", runs("aa", "aa"), runs("bb", "bb"), 0},
	} {
		var out bytes.Buffer
		if got := printComparison(sp, tc.parent, tc.change, &out); got != tc.want {
			t.Errorf("%s: exit %d, want %d\n%s", tc.name, got, tc.want, out.String())
		}
	}
}
