package viz

import (
	"strings"
	"testing"

	"rewire/internal/ledger"
)

func qorEntries() []ledger.Entry {
	e := func(kernel, mapper string, ii int, ms float64) ledger.Entry {
		return ledger.Entry{
			Kernel: kernel, Arch: "4x4r4", Mapper: mapper,
			Success: ii > 0, II: ii, MII: 2, CompileMS: ms,
		}
	}
	return []ledger.Entry{
		e("mvt", "rewire", 3, 10),
		e("mvt", "rewire", 2, 12),
		e("mvt", "pathfinder", 4, 30),
		e("atax", "rewire", 2, 8),
		e("atax", "pathfinder", 0, 50), // failed
	}
}

// TestRenderQoR checks the dashboard's sections on a five-run ledger.
func TestRenderQoR(t *testing.T) {
	out := RenderQoRHTML(qorEntries())
	for _, want := range []string{
		"5 runs in 4 groups",
		"mvt@4x4r4", "atax@4x4r4",
		"mapping quality", "compile-time trend", "win rate",
		// rewire beats pathfinder on both combos (lower best II on mvt,
		// success-vs-failure on atax).
		">2/2<",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("dashboard misses %q:\n%s", want, out)
		}
	}
	// The II series for mvt/rewire has two points: the sparkline must
	// not be empty.
	if !strings.ContainsAny(out, "▁▂▃▄▅▆▇█") {
		t.Error("dashboard has no sparklines")
	}
}

func TestRenderQoRHTML(t *testing.T) {
	out := RenderQoRHTML(qorEntries())
	if !strings.HasPrefix(out, "<!DOCTYPE html>") || !strings.Contains(out, "QoR dashboard") {
		t.Errorf("HTML dashboard has no page header:\n%s", out)
	}
	// Kernel names are user input on the serve path: they must be
	// escaped.
	evil := []ledger.Entry{{Kernel: "<script>", Arch: "a", Mapper: "rewire", Success: true, II: 1, MII: 1}}
	if strings.Contains(RenderQoRHTML(evil), "<script>") {
		t.Error("HTML dashboard does not escape kernel names")
	}
}

func TestRenderQoREmpty(t *testing.T) {
	out := RenderQoRHTML(nil)
	if !strings.Contains(out, "0 runs in 0 groups") || !strings.Contains(out, "ledger is empty") {
		t.Errorf("empty dashboard: %q", out)
	}
}
