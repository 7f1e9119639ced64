package diag

import (
	"strings"
	"testing"

	"rewire/internal/mrrg"
	"rewire/internal/stats"
)

func eventTypes(b *Bus) string {
	var ts []string
	for _, e := range b.Events() {
		ts = append(ts, e.Type)
	}
	return strings.Join(ts, " ")
}

// TestObserverBoundaries drives one run through every boundary and
// checks that each call reaches both the progress stream and the report.
func TestObserverBoundaries(t *testing.T) {
	g, cgra, sess := tinyRun(t)
	defer sess.Close()
	c, bus := NewCollector(), NewBus(0)
	run := NewObserver(nil, c, bus).RunStart(g, cgra, "portfolio", "Portfolio", 2)
	run.IIStart(2, "sa")
	att := run.Lane("sa").AttemptStart(2, 1)
	att.Round(25, 1, true)
	att.Round(50, 0, false)
	att.End(true, false, 50, sess)
	run.IIEnd(2, "sa", "ok")
	run.RunEnd(stats.Result{Success: true, II: 2, MII: 2}, "sa")

	if got, want := eventTypes(bus), "run_start ii_start attempt_start round attempt_end ii_end run_end"; got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
	evs := bus.Events()
	if e := evs[2]; e.Lane != "sa" || e.Attempt != 1 || e.II != 2 {
		t.Fatalf("attempt_start = %+v, want lane sa, attempt 1 at II 2", e)
	}
	if e := evs[3]; e.Lane != "sa" || e.Attempt != 1 || e.II != 2 || e.Round != 25 || e.Ill != 1 {
		t.Fatalf("round = %+v, want round 25 (ill 1) of lane sa, attempt 1 at II 2", e)
	}
	if e := evs[4]; e.Round != 50 || e.Outcome != "ok" || e.Lane != "sa" {
		t.Fatalf("attempt_end = %+v, want 50 rounds, ok, lane sa", e)
	}
	if e := evs[6]; e.II != 2 || e.Outcome != "ok" || e.Lane != "sa" {
		t.Fatalf("run_end = %+v, want ok at II 2 won by sa", e)
	}
	r := c.Report()
	if !r.Success || r.II != 2 || r.WinnerBackend != "sa" || r.Mapper != "Portfolio" || r.Cached {
		t.Fatalf("report header = %+v", r)
	}
	if len(r.Attempts) != 1 || r.Attempts[0].Lane != "sa" || r.Attempts[0].Rounds != 2 || r.Attempts[0].Outcome != "mapped" {
		t.Fatalf("timeline = %+v, want one mapped sa attempt of 2 rounds", r.Attempts)
	}
}

// TestObserverBusOnly: with a bus and no collector the attempt handle
// publishes its events but records and attributes nothing.
func TestObserverBusOnly(t *testing.T) {
	bus := NewBus(0)
	att := NewObserver(nil, nil, bus).AttemptStart(3, 0)
	if att == nil || att.Diagnosing() {
		t.Fatalf("bus-only handle = %v, want live and not diagnosing", att)
	}
	att.Round(1, 4, true)
	att.Contend(mrrg.Node(1), mrrg.Net(0))
	att.End(false, true, 0, nil)
	if got, want := eventTypes(bus), "attempt_start round attempt_end"; got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
	if att.contested != nil || att.rounds != 0 {
		t.Fatal("bus-only handle recorded diagnostics")
	}
	if out := bus.Events()[2].Outcome; out != "cancelled" {
		t.Fatalf("attempt_end outcome = %q, want cancelled", out)
	}
}

// TestObserverServed: a cache-served run opens and closes on the served
// result with no attempts, and its report is marked cached.
func TestObserverServed(t *testing.T) {
	g, cgra, sess := tinyRun(t)
	defer sess.Close()
	c, bus := NewCollector(), NewBus(0)
	res := stats.Result{Mapper: "Portfolio", Success: true, II: 3, MII: 2,
		Portfolio: &stats.PortfolioStats{WinnerBackend: "rewire"}}
	NewObserver(nil, c, bus).Served(g, cgra, "portfolio", res)
	if got, want := eventTypes(bus), "run_start run_end"; got != want {
		t.Fatalf("events = %q, want %q", got, want)
	}
	r := c.Report()
	if !r.Cached || !r.Success || r.II != 3 || r.Kernel != "tiny" || r.WinnerBackend != "rewire" || len(r.Attempts) != 0 {
		t.Fatalf("served report = %+v", r)
	}
}
