package sweep_test

import (
	"context"
	"fmt"
	"reflect"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/core"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/sa"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

// The speculative sweep's contract: with the same seed, a width-W sweep
// commits a bit-identical (II, placement, routes, merged stats) result
// to the serial sweep, for every mapper. The per-II time budget must
// never bind: the mappers' own work bounds (remaps, restarts, attempt
// budgets) terminate each II on these kernels in well under a second
// natively, and a binding wall clock would make any sweep — serial
// included — timing-dependent. An hour absorbs the race detector's
// ~20x slowdown stacked with parallel-subtest contention in CI.
const detBudget = time.Hour

// runBoth maps the kernel serially and with a width-4 window.
func runBoth(t *testing.T, mapper string, kernel string, seed int64) (s, p *mapping.Mapping, sr, pr stats.Result) {
	t.Helper()
	a := arch.New4x4(4)
	rows := map[string]sweep.Backend{
		"Rewire": core.Row(core.Options{}),
		"PF*":    pathfinder.Row(pathfinder.Options{}),
		"SA":     sa.Row(sa.Options{}),
	}
	row, ok := rows[mapper]
	if !ok {
		t.Fatalf("unknown mapper %q", mapper)
	}
	run := func(window int) (*mapping.Mapping, stats.Result) {
		g := kernels.MustLoad(kernel)
		return sweep.Drive(context.Background(), g, a, sweep.Solo(row, window),
			sweep.RunOptions{Seed: seed, TimePerII: detBudget})
	}
	s, sr = run(1)
	p, pr = run(4)
	return s, p, sr, pr
}

func TestSpeculativeSweepMatchesSerial(t *testing.T) {
	kernelsByMapper := map[string][]string{
		// Rewire and PF* are fast enough for two kernels per seed; SA's
		// blind moves make it the slowest, so it gets the smallest kernel.
		"Rewire": {"mvt", "gesummv"},
		"PF*":    {"mvt", "atax"},
		"SA":     {"mvt"},
	}
	seeds := []int64{1, 7, 42}
	for mapper, kns := range kernelsByMapper {
		for _, kernel := range kns {
			for _, seed := range seeds {
				t.Run(fmt.Sprintf("%s/%s/seed%d", mapper, kernel, seed), func(t *testing.T) {
					t.Parallel()
					s, p, sr, pr := runBoth(t, mapper, kernel, seed)
					if sr.Success != pr.Success {
						t.Fatalf("success differs: serial %v vs speculative %v", sr.Success, pr.Success)
					}
					if sr.II != pr.II {
						t.Fatalf("II differs: serial %d vs speculative %d", sr.II, pr.II)
					}
					if (s == nil) != (p == nil) {
						t.Fatalf("mapping nil-ness differs: serial %v vs speculative %v", s == nil, p == nil)
					}
					if s == nil {
						return
					}
					if !reflect.DeepEqual(s.Place, p.Place) {
						t.Fatal("placements differ between serial and speculative sweeps")
					}
					if !reflect.DeepEqual(s.Routes, p.Routes) {
						t.Fatal("routes differ between serial and speculative sweeps")
					}
					if !reflect.DeepEqual(s.BankPorts, p.BankPorts) {
						t.Fatal("bank ports differ between serial and speculative sweeps")
					}
					// The merged effort statistics must match too: the sweep
					// folds only attempts at or below the committed II, in
					// ascending order, so speculation never leaks into them.
					if sr.PlacementsTried != pr.PlacementsTried ||
						sr.RouterExpansions != pr.RouterExpansions ||
						sr.RemapIterations != pr.RemapIterations ||
						sr.ClusterAmendments != pr.ClusterAmendments ||
						sr.VerifyAttempts != pr.VerifyAttempts {
						t.Fatalf("merged stats differ:\nserial      %+v\nspeculative %+v", sr, pr)
					}
				})
			}
		}
	}
}

// TestSweepSeedDerivationIsPerII pins the seed contract the determinism
// above rests on: re-running a single mapper at a different MaxII floor
// must not change what an II attempt does. With seeds derived per II
// (rather than one rng threaded across the sweep), attempt outcomes are
// independent of which IIs ran before them.
func TestSweepSeedDerivationIsPerII(t *testing.T) {
	g := kernels.MustLoad("mvt")
	a := arch.New4x4(4)
	m1, r1 := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 3, TimePerII: detBudget}})
	if m1 == nil {
		t.Skip("mvt did not map at the default budget")
	}
	// Start the sweep directly at the committed II: the attempt there must
	// reproduce the same mapping even though the failed lower IIs never ran.
	g2 := kernels.MustLoad("mvt")
	m2, r2 := pathfinder.Map(g2, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 3, TimePerII: detBudget, MaxII: r1.II}})
	if m2 == nil || r2.II != r1.II {
		t.Fatalf("re-run at MaxII=%d failed (II %d)", r1.II, r2.II)
	}
	if !reflect.DeepEqual(m1.Place, m2.Place) || !reflect.DeepEqual(m1.Routes, m2.Routes) {
		t.Fatal("per-II attempt depended on sweep history")
	}
}
