package eval

import (
	"bufio"
	"bytes"
	"encoding/json"
	"io"
	"os"
	"path/filepath"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/diag"
	"rewire/internal/kernels"
	"rewire/internal/resultcache"
	"rewire/internal/trace"
)

// The counters-audit contract: every mapper fills its stats.Effort tally
// on every path, and the tracer's work counters are filled from each
// ended attempt's tally, so on a serial run the counter totals mirror the
// stats.Result fields exactly and any drift between the two is an
// instrumentation bug.
func TestCountersNonzeroAndMatchTracer(t *testing.T) {
	cb := Combo{Kernel: "mvt", Arch: arch.New4x4(4)}
	for _, mapper := range Mappers {
		mapper := mapper
		t.Run(mapper, func(t *testing.T) {
			tr := trace.New()
			cfg := Config{Seed: 1, TimePerII: 2 * time.Second, Out: io.Discard, Tracer: tr}
			_, res := Run(mapper, cb, cfg)
			if res.RouterExpansions == 0 {
				t.Errorf("%s: RouterExpansions = 0, want > 0", mapper)
			}
			if res.PlacementsTried == 0 {
				t.Errorf("%s: PlacementsTried = 0, want > 0", mapper)
			}
			tot := tr.CounterTotals()
			if got := tot["route.expansions"]; got != res.RouterExpansions {
				t.Errorf("%s: counter route.expansions = %d, stats says %d", mapper, got, res.RouterExpansions)
			}
			if got := tot["placements.tried"]; got != res.PlacementsTried {
				t.Errorf("%s: counter placements.tried = %d, stats says %d", mapper, got, res.PlacementsTried)
			}
			if mapper != "Rewire" {
				return
			}
			if res.VerifyAttempts == 0 || res.VerifySuccesses == 0 {
				t.Errorf("Rewire: VerifyAttempts=%d VerifySuccesses=%d, want both > 0",
					res.VerifyAttempts, res.VerifySuccesses)
			}
			if got := tot["verify.attempts"]; got != res.VerifyAttempts {
				t.Errorf("counter verify.attempts = %d, stats says %d", got, res.VerifyAttempts)
			}
			if got := tot["verify.successes"]; got != res.VerifySuccesses {
				t.Errorf("counter verify.successes = %d, stats says %d", got, res.VerifySuccesses)
			}
			if got := tot["cluster.amendments"]; got != int64(res.ClusterAmendments) {
				t.Errorf("counter cluster.amendments = %d, stats says %d", got, res.ClusterAmendments)
			}
		})
	}
}

// A failed run must still report mapping effort (the audit caught
// mappers recording RouterExpansions only on success). ludcmp on the
// 1-register 4x4 fabric at MaxII=MII with a 100ms budget fails for all
// three mappers while burning real work first. SA's router only fires
// once its placement-cost estimate clears the infeasibility penalty —
// which it may never do on a failing run — so its guaranteed failure
// effort is PlacementsTried, not expansions.
func TestCountersFilledOnFailure(t *testing.T) {
	cb := Combo{Kernel: "ludcmp", Arch: arch.New4x4(1)}
	mii := MIIOf(cb)
	for _, mapper := range Mappers {
		mapper := mapper
		t.Run(mapper, func(t *testing.T) {
			cfg := Config{Seed: 1, TimePerII: 100 * time.Millisecond, MaxII: mii, Out: io.Discard}
			_, res := Run(mapper, cb, cfg)
			if res.Success {
				t.Skipf("%s mapped ludcmp@4x4r1 at MII in 100ms; no failure path to check", mapper)
			}
			if res.PlacementsTried == 0 {
				t.Errorf("%s: failed run reports PlacementsTried = 0, want > 0", mapper)
			}
			if mapper != "SA" && res.RouterExpansions == 0 {
				t.Errorf("%s: failed run reports RouterExpansions = 0, want > 0", mapper)
			}
		})
	}
}

// RunCombos with TraceDir writes one Chrome trace and one JSONL trace
// per run, with names safe for "PF*" and parenthesised kernels, and both
// files parse.
func TestRunCombosTraceDir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Seed: 1, TimePerII: 2 * time.Second, Jobs: 2,
		Out: io.Discard, TraceDir: dir,
	}
	combos := []Combo{{Kernel: "mvt", Arch: arch.New4x4(4)}}
	RunCombos(cfg, combos)

	for _, mapper := range Mappers {
		base := traceFileBase(mapper, combos[0])
		chrome := filepath.Join(dir, base+".trace.json")
		data, err := os.ReadFile(chrome)
		if err != nil {
			t.Fatalf("missing Chrome trace: %v", err)
		}
		var doc struct {
			TraceEvents []map[string]any `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatalf("%s: invalid Chrome trace JSON: %v", chrome, err)
		}
		if len(doc.TraceEvents) == 0 {
			t.Errorf("%s: no trace events", chrome)
		}

		jf, err := os.Open(filepath.Join(dir, base+".jsonl"))
		if err != nil {
			t.Fatalf("missing JSONL trace: %v", err)
		}
		sc := bufio.NewScanner(jf)
		sc.Buffer(make([]byte, 1<<20), 1<<20)
		lines := 0
		for sc.Scan() {
			var v map[string]any
			if err := json.Unmarshal(sc.Bytes(), &v); err != nil {
				t.Fatalf("%s.jsonl line %d: invalid JSON: %v", base, lines+1, err)
			}
			lines++
		}
		jf.Close()
		if lines < 2 {
			t.Errorf("%s.jsonl: only %d lines, want meta + spans", base, lines)
		}
	}
	if base := traceFileBase("PF*", Combo{Kernel: "bicg(u)", Arch: arch.New4x4(4)}); base != "PF__bicg_u_@4x4r4" {
		t.Errorf("sanitized base = %q", base)
	}
}

// RunCombos with ReportDir writes one schema-tagged post-mortem (JSON +
// HTML) per mapper run, each attributed to its own run even under
// parallel jobs.
func TestRunCombosReportDir(t *testing.T) {
	dir := t.TempDir()
	cfg := Config{
		Seed: 1, TimePerII: 2 * time.Second, Jobs: 2,
		Out: io.Discard, ReportDir: dir,
	}
	combos := []Combo{{Kernel: "mvt", Arch: arch.New4x4(4)}}
	RunCombos(cfg, combos)

	for _, mapper := range Mappers {
		base := traceFileBase(mapper, combos[0])
		data, err := os.ReadFile(filepath.Join(dir, base+".report.json"))
		if err != nil {
			t.Fatalf("missing report: %v", err)
		}
		var r struct {
			Schema   string `json:"schema"`
			Kernel   string `json:"kernel"`
			Mapper   string `json:"mapper"`
			Attempts []any  `json:"attempts"`
		}
		if err := json.Unmarshal(data, &r); err != nil {
			t.Fatalf("%s.report.json: invalid JSON: %v", base, err)
		}
		if r.Schema != "rewire-report-v1" || r.Kernel != "mvt" || r.Mapper != mapper {
			t.Errorf("%s: report identity = %+v", base, r)
		}
		if len(r.Attempts) == 0 {
			t.Errorf("%s: report has no attempt timeline", base)
		}
		html, err := os.ReadFile(filepath.Join(dir, base+".report.html"))
		if err != nil {
			t.Fatalf("missing HTML report: %v", err)
		}
		if !bytes.Contains(html, []byte("<!DOCTYPE html>")) {
			t.Errorf("%s.report.html is not an HTML page", base)
		}
	}
}

// TestRunDFGCacheHitReportsServed: a cache hit never runs the mappers,
// so its collector must still learn the served outcome, marked cached.
func TestRunDFGCacheHitReportsServed(t *testing.T) {
	g := kernels.MustLoad("mvt")
	cfg := Config{Seed: 1, TimePerII: 2 * time.Second, Out: io.Discard, Cache: resultcache.New(4)}
	cfg.Diag = diag.NewCollector()
	_, first := RunDFG("Rewire", g, arch.New4x4(4), cfg)
	if !first.Success || cfg.Diag.Report().Cached {
		t.Fatalf("first run = %+v, want an uncached success", first)
	}
	cfg.Diag = diag.NewCollector()
	_, res := RunDFG("Rewire", g, arch.New4x4(4), cfg)
	r := cfg.Diag.Report()
	if !r.Cached || !r.Success || r.II != first.II || r.Kernel != "mvt" || r.Mapper != "Rewire" {
		t.Fatalf("cache-hit report = cached=%v success=%v II=%d kernel=%q mapper=%q, want a cached success at II=%d",
			r.Cached, r.Success, r.II, r.Kernel, r.Mapper, first.II)
	}
	if len(r.Attempts) != 0 || res.II != first.II {
		t.Fatalf("cache hit fabricated %d attempts or moved the II to %d", len(r.Attempts), res.II)
	}
}
