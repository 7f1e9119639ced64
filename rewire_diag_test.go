package rewire

import (
	"encoding/json"
	"testing"
	"time"
)

// TestFailedMappingReportNamesContention is the post-mortem acceptance
// test: a hard kernel squeezed onto a register-starved fabric at its
// MII under a small budget fails, and the collected report must say
// where the fight happened — at least one contested resource with the
// DFG ops that fought over it — plus a coherent attempt timeline and a
// well-paired progress-event stream.
func TestFailedMappingReportNamesContention(t *testing.T) {
	g, err := LoadKernel("gramsch")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(1)
	dc := NewDiagCollector()
	bus := NewProgressBus(0)
	mii := MII(g, cgra)
	m, res, mapErr := Map(g, cgra, Options{
		Mapper: MapperPathFinder, Seed: 1,
		TimePerII: 300 * time.Millisecond, MaxII: mii,
		Diag: dc, Progress: bus,
	})
	bus.Close()
	if m != nil || mapErr == nil {
		t.Skipf("gramsch unexpectedly mapped at MII=%d; cannot exercise the failure post-mortem", mii)
	}

	r := dc.Report()
	if r == nil || r.Success {
		t.Fatalf("report = %+v, want a failure report", r)
	}
	if r.Kernel != "gramsch" || r.Mapper != "PF*" || r.MII != res.MII {
		t.Fatalf("report identity wrong: %+v", r)
	}
	if r.Rows != 4 || r.Cols != 4 {
		t.Fatalf("report geometry = %dx%d, want 4x4", r.Rows, r.Cols)
	}
	if len(r.Attempts) == 0 {
		t.Fatal("report has no attempt timeline")
	}
	for _, a := range r.Attempts {
		if a.Outcome != "failed" && a.Outcome != "cancelled" {
			t.Fatalf("failed run's attempt outcome = %q", a.Outcome)
		}
	}
	if len(r.Contested) == 0 {
		t.Fatal("failure report names no contested resources")
	}
	named := false
	for _, cr := range r.Contested {
		if cr.TimesContested < 1 || cr.Resource == "" {
			t.Fatalf("malformed contested entry: %+v", cr)
		}
		if len(cr.Contenders) > 0 {
			named = true
		}
	}
	if !named {
		t.Fatal("no contested resource names its contending DFG ops")
	}

	// The report is JSON-stable and round-trips.
	data, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	var back DiagReport
	if err := json.Unmarshal(data, &back); err != nil {
		t.Fatal(err)
	}
	if back.Schema != "rewire-report-v1" {
		t.Fatalf("schema = %q", back.Schema)
	}

	// The rendered post-mortem names the top contested resource too.
	if txt := RenderReport(r); txt == "" || len(txt) < 40 {
		t.Fatalf("rendered report implausibly short: %q", txt)
	}

	// The progress stream is coherent: monotonic sequence, run_start
	// first, run_end last, and paired ii/attempt boundaries.
	evs := bus.Events()
	if len(evs) < 4 {
		t.Fatalf("progress stream has %d events, want at least run/ii/attempt boundaries", len(evs))
	}
	if evs[0].Type != "run_start" {
		t.Fatalf("first event = %q, want run_start", evs[0].Type)
	}
	if last := evs[len(evs)-1]; last.Type != "run_end" || last.Outcome != "failed" {
		t.Fatalf("last event = %+v, want failed run_end", last)
	}
	starts, ends := 0, 0
	for i, ev := range evs {
		if i > 0 && ev.Seq <= evs[i-1].Seq {
			t.Fatalf("sequence not monotonic at %d: %d then %d", i, evs[i-1].Seq, ev.Seq)
		}
		switch ev.Type {
		case "attempt_start":
			starts++
		case "attempt_end":
			ends++
		}
	}
	if starts == 0 || starts != ends {
		t.Fatalf("attempt boundaries unpaired: %d starts, %d ends", starts, ends)
	}
}

// TestSuccessfulMappingReport: a successful run's report records the
// committed II and an attempt timeline ending in "mapped".
func TestSuccessfulMappingReport(t *testing.T) {
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	dc := NewDiagCollector()
	m, res, err := Map(g, cgra, Options{Seed: 1, TimePerII: 2 * time.Second, Diag: dc})
	if err != nil {
		t.Fatal(err)
	}
	r := dc.Report()
	if !r.Success || r.II != res.II || r.II != m.II {
		t.Fatalf("report outcome = success=%v II=%d, want II=%d", r.Success, r.II, res.II)
	}
	mapped := false
	for _, a := range r.Attempts {
		if a.Outcome == "mapped" && a.II == res.II {
			mapped = true
		}
	}
	if !mapped {
		t.Fatalf("no mapped attempt at the committed II in %+v", r.Attempts)
	}
}

// TestCachedHitReportMarksCached: a result-cache hit fills the
// caller's collector with the served outcome and flags it cached.
func TestCachedHitReportMarksCached(t *testing.T) {
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	opt := Options{Seed: 1, TimePerII: 2 * time.Second, Cache: NewResultCache(4)}
	if _, _, err := Map(g, cgra, opt); err != nil {
		t.Fatal(err)
	}
	opt.Diag = NewDiagCollector()
	_, res, err := Map(g, cgra, opt)
	if err != nil {
		t.Fatal(err)
	}
	r := opt.Diag.Report()
	if !r.Cached || !r.Success || r.II != res.II {
		t.Fatalf("cached-hit report = cached=%v success=%v II=%d, want cached success at II=%d",
			r.Cached, r.Success, r.II, res.II)
	}
	if len(r.Attempts) != 0 {
		t.Fatalf("cached hit fabricated %d attempts", len(r.Attempts))
	}
}

// TestTraceIsOneTree pins the span-tree rule: every mapper's trace is
// one tree under the mapper's root span — portfolio lanes included —
// with every parent ID recorded, and the sweep span's lo/hi bounds are
// IIs, not lane indices.
func TestTraceIsOneTree(t *testing.T) {
	roots := []struct {
		mapper MapperName
		root   string
	}{
		{MapperRewire, "rewire.map"},
		{MapperPathFinder, "pf.map"},
		{MapperSA, "sa.map"},
		{MapperPortfolio, "portfolio.map"},
	}
	for _, c := range roots {
		t.Run(string(c.mapper), func(t *testing.T) {
			g, err := LoadKernel("mvt")
			if err != nil {
				t.Fatal(err)
			}
			tr := NewTracer()
			_, res, err := Map(g, New4x4(4), Options{Mapper: c.mapper, Seed: 1, TimePerII: time.Hour, MaxII: 8, Tracer: tr})
			if err != nil {
				t.Fatal(err)
			}
			spans := tr.Spans()
			ids := map[uint64]bool{}
			for _, s := range spans {
				ids[s.ID] = true
			}
			var rootNames []string
			for _, s := range spans {
				if s.Parent == 0 {
					rootNames = append(rootNames, s.Name)
				} else if !ids[s.Parent] {
					t.Errorf("span %q names parent %d, which was never recorded", s.Name, s.Parent)
				}
				if s.Name != "sweep" {
					continue
				}
				for _, a := range s.Attrs {
					if (a.Key == "lo" && a.Int != int64(res.MII)) || (a.Key == "hi" && a.Int != 8) {
						t.Errorf("sweep span %s = %d, want II bounds [%d, 8]", a.Key, a.Int, res.MII)
					}
				}
			}
			if len(rootNames) != 1 || rootNames[0] != c.root {
				t.Fatalf("root spans = %v, want exactly [%s]", rootNames, c.root)
			}
		})
	}
}
