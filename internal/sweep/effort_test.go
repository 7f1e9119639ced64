package sweep_test

import (
	"context"
	"reflect"
	"testing"
	"time"

	"rewire"
	"rewire/internal/arch"
	"rewire/internal/core"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/sa"
	"rewire/internal/stats"
	"rewire/internal/sweep"
	"rewire/internal/trace"
)

// effortCounters names the tracer counters each stats.Effort field
// fills; RemapIterations fills the remap counter of its backend.
var effortCounters = map[string][]string{
	"RemapIterations":   {"pf.remaps", "sa.moves"},
	"ClusterAmendments": {"cluster.amendments"},
	"PlacementsTried":   {"placements.tried"},
	"VerifyAttempts":    {"verify.attempts"},
	"VerifySuccesses":   {"verify.successes"},
	"RouterExpansions":  {"route.expansions"},
	"PlacementsPruned":  {"placements.pruned"},
	"ForwardRejected":   {"placements.forward_rejected"},
	"PropagateTuples":   {"propagate.tuples"},
	"TuplesDeduped":     {"propagate.tuples_deduped"},
	"PCandidates":       {"intersect.pcandidates"},
}

// effortVsCounters pairs every field of eff with its counter total. A
// solo run's RemapIterations is the driver's per-II mean, not a sum, so
// it is left out.
func effortVsCounters(t *testing.T, eff stats.Effort, tot map[string]int64, solo bool) map[string][2]int64 {
	t.Helper()
	out := map[string][2]int64{}
	v := reflect.ValueOf(eff)
	for i := 0; i < v.NumField(); i++ {
		name := v.Type().Field(i).Name
		names, ok := effortCounters[name]
		if !ok {
			t.Fatalf("Effort.%s has no counter in effortCounters", name)
		}
		if solo && name == "RemapIterations" {
			continue
		}
		var ctr int64
		for _, n := range names {
			ctr += tot[n]
		}
		out[name] = [2]int64{v.Field(i).Int(), ctr}
	}
	return out
}

// TestEffortCountersAtWidth pins the two views of one run's work. The
// Result sums the explored attempts (those at and below the commit);
// the tracer's counters are filled from every launched attempt's tally,
// cancelled speculative ones included. So serially the two agree
// exactly (a tally filled twice, or folded into the counters again by
// the driver, shows here), and at width > 1 every counter is at least
// its Result field, and strictly above it when the window launched
// attempts the serial sweep never ran (their partial work is booked).
func TestEffortCountersAtWidth(t *testing.T) {
	g, err := rewire.LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		mapper rewire.MapperName
		width  int
	}{{rewire.MapperRewire, 4}, {rewire.MapperPortfolio, 2}} {
		t.Run(string(c.mapper), func(t *testing.T) {
			run := func(width int) (stats.Result, map[string]int64) {
				opt := rewire.Options{Mapper: c.mapper, Seed: 1, TimePerII: time.Hour, Tracer: rewire.NewTracer()}
				if c.mapper == rewire.MapperPortfolio {
					opt.PortfolioParallelism = width
				} else {
					opt.SweepParallelism = width
				}
				_, res, err := rewire.MapCtx(context.Background(), g, rewire.New4x4(4), opt)
				if err != nil {
					t.Fatal(err)
				}
				return res, opt.Tracer.CounterTotals()
			}
			solo := c.mapper != rewire.MapperPortfolio
			serial, serialTot := run(1)
			for name, p := range effortVsCounters(t, serial.Effort, serialTot, solo) {
				if p[0] != p[1] {
					t.Errorf("width 1: Effort.%s = %d, counter %d", name, p[0], p[1])
				}
			}
			wide, wideTot := run(c.width)
			if !reflect.DeepEqual(wide.Effort, serial.Effort) {
				t.Fatalf("width %d effort %+v, serial %+v", c.width, wide.Effort, serial.Effort)
			}
			for name, p := range effortVsCounters(t, wide.Effort, wideTot, solo) {
				if p[1] < p[0] {
					t.Errorf("width %d: counter of Effort.%s = %d, below the Result's %d", c.width, name, p[1], p[0])
				}
			}
			extra := wideTot["sweep.attempts"] - serialTot["sweep.attempts"]
			t.Logf("width %d launched %d attempts beyond the serial sweep's %d", c.width, extra, serialTot["sweep.attempts"])
			if extra > 0 && wideTot["placements.tried"] <= wide.PlacementsTried {
				t.Errorf("width %d launched %d extra attempts but placements.tried = %d, the Result's %d",
					c.width, extra, wideTot["placements.tried"], wide.PlacementsTried)
			}
		})
	}
}

// TestCancelledAttemptBooksItsWork runs one II attempt of each backend
// under a context that is already cancelled, and under one cancelled
// a few milliseconds in, and demands that the attempt's tally still
// reaches the tracer: the backend's whole counter set appears, each
// counter equal to the tally the attempt returned.
func TestCancelledAttemptBooksItsWork(t *testing.T) {
	g := kernels.MustLoad("mvt")
	a := arch.New4x4(4)
	mii := mapping.MII(g, a)
	for _, row := range []sweep.Backend{
		core.Row(core.Options{}), pathfinder.Row(pathfinder.Options{}), sa.Row(sa.Options{}),
	} {
		for _, after := range []time.Duration{0, 5 * time.Millisecond} {
			tr := trace.New()
			ctx, cancel := context.WithTimeout(context.Background(), after)
			_, eff, _ := row.Attempt(ctx, g, a, mii, 1, nil, sweep.RunOptions{TimePerII: time.Hour, Tracer: tr}.WithDefaults())
			cancel()
			tot := tr.CounterTotals()
			for name, p := range effortVsCounters(t, eff, tot, false) {
				if p[0] != p[1] {
					t.Errorf("%s cancelled after %v: Effort.%s = %d, counter %d", row.Name, after, name, p[0], p[1])
				}
			}
			for _, name := range []string{"placements.tried", "route.expansions"} {
				if _, ok := tot[name]; !ok {
					t.Errorf("%s cancelled after %v: counter %s not filled", row.Name, after, name)
				}
			}
		}
	}
}
