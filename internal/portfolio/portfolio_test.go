package portfolio

import (
	"context"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

// detBudget must never bind: each backend's own work bounds terminate
// every lane on these kernels well under a second natively, and a
// binding wall clock would make any schedule — serial included —
// timing-dependent. An hour absorbs the race detector's ~20x slowdown.
const detBudget = time.Hour

// race runs the full portfolio at lane window w under a budget that
// never binds.
func race(ctx context.Context, g *dfg.Graph, a *arch.CGRA, seed int64, w int) (*mapping.Mapping, stats.Result) {
	plan, err := Plan("portfolio", nil, 0, w)
	if err != nil {
		panic(err)
	}
	return sweep.Drive(ctx, g, a, plan, sweep.RunOptions{Seed: seed, TimePerII: detBudget})
}

// normalize strips the wall-clock-dependent accounting from a result so
// the rest can be compared bit-for-bit across parallelism widths:
// Duration always varies, and the portfolio lane tallies (Launched,
// Cancelled, WastedMS) count speculative work, which by design depends
// on the width. WinnerBackend and everything else must not.
func normalize(r stats.Result) stats.Result {
	r.Duration = 0
	if r.Portfolio != nil {
		p := *r.Portfolio
		p.PerBackend = append([]stats.BackendLanes(nil), p.PerBackend...)
		for i := range p.PerBackend {
			p.PerBackend[i].Launched = 0
			p.PerBackend[i].Cancelled = 0
			p.PerBackend[i].WastedMS = 0
		}
		r.Portfolio = &p
	}
	return r
}

// TestPortfolioDeterminismMatrix is the PR's acceptance matrix: the
// committed (II, placement, routes, merged stats, winner backend) is
// bit-identical at widths {1, 4, 8} for kernels × seeds {1, 7, 42}.
// Width 1 is the priority-ordered serial schedule, so equality with it
// proves the racing schedules commit exactly what "run the backends in
// priority order, lowest II first" would.
func TestPortfolioDeterminismMatrix(t *testing.T) {
	kernelNames := []string{"mvt", "atax"}
	seeds := []int64{1, 7, 42}
	widths := []int{1, 4, 8}
	for _, kernel := range kernelNames {
		for _, seed := range seeds {
			kernel, seed := kernel, seed
			t.Run(fmt.Sprintf("%s/seed%d", kernel, seed), func(t *testing.T) {
				t.Parallel()
				a := arch.New4x4(4)
				type outcome struct {
					m  *mapping.Mapping
					st stats.Result
				}
				var ref outcome
				for i, w := range widths {
					g := kernels.MustLoad(kernel)
					m, st := race(context.Background(), g, a, seed, w)
					if !st.Success {
						t.Fatalf("width %d: portfolio failed (mii %d)", w, st.MII)
					}
					if st.Portfolio == nil || st.Portfolio.WinnerBackend == "" {
						t.Fatalf("width %d: missing portfolio stats / winner", w)
					}
					if err := mapping.Validate(m); err != nil {
						t.Fatalf("width %d: invalid mapping: %v", w, err)
					}
					cur := outcome{m: m, st: normalize(st)}
					if i == 0 {
						ref = cur
						continue
					}
					if cur.st.II != ref.st.II {
						t.Fatalf("width %d: II %d != serial II %d", w, cur.st.II, ref.st.II)
					}
					if cur.st.Portfolio.WinnerBackend != ref.st.Portfolio.WinnerBackend {
						t.Fatalf("width %d: winner %q != serial winner %q",
							w, cur.st.Portfolio.WinnerBackend, ref.st.Portfolio.WinnerBackend)
					}
					if !reflect.DeepEqual(cur.m.Place, ref.m.Place) {
						t.Fatalf("width %d: placement differs from serial schedule", w)
					}
					if !reflect.DeepEqual(cur.m.Routes, ref.m.Routes) {
						t.Fatalf("width %d: routes differ from serial schedule", w)
					}
					if !reflect.DeepEqual(cur.st, ref.st) {
						t.Fatalf("width %d: merged stats differ from serial schedule:\n got %+v\nwant %+v",
							w, cur.st, ref.st)
					}
				}
			})
		}
	}
}

// TestPortfolioCancellationTeardown races a wide window, lets a lane
// win early (cancelling the rest), and asserts clean teardown: no
// goroutine outlives the run, and the pooled mapper state the
// cancelled lanes returned is not corrupted — a fresh serial run still
// commits the identical result.
func TestPortfolioCancellationTeardown(t *testing.T) {
	a := arch.New4x4(4)
	run := func(w int) (*mapping.Mapping, stats.Result) {
		g := kernels.MustLoad("mvt")
		return race(context.Background(), g, a, 7, w)
	}
	// Warm pools and the scheduler outside the measurement.
	run(2)

	before := runtime.NumGoroutine()
	wm, wst := run(8)
	if !wst.Success {
		t.Fatal("wide portfolio run failed")
	}
	cancelledLanes := 0
	for _, b := range wst.Portfolio.PerBackend {
		cancelledLanes += b.Cancelled
	}
	if cancelledLanes == 0 {
		t.Fatal("width-8 run cancelled no lanes; teardown path not exercised")
	}
	// Every lane goroutine must be drained before Drive returns;
	// allow unrelated runtime goroutines a moment to settle.
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		runtime.Gosched()
		time.Sleep(10 * time.Millisecond)
	}
	if got := runtime.NumGoroutine(); got > before {
		buf := make([]byte, 1<<20)
		t.Fatalf("goroutines leaked after early lane win: %d > %d\n%s",
			got, before, buf[:runtime.Stack(buf, true)])
	}

	sm, sst := run(1)
	if sst.II != wst.II || sst.Portfolio.WinnerBackend != wst.Portfolio.WinnerBackend {
		t.Fatalf("post-cancellation serial run diverged: II %d/%s vs %d/%s",
			sst.II, sst.Portfolio.WinnerBackend, wst.II, wst.Portfolio.WinnerBackend)
	}
	if !reflect.DeepEqual(sm.Place, wm.Place) || !reflect.DeepEqual(sm.Routes, wm.Routes) {
		t.Fatal("post-cancellation serial run committed a different mapping: pool state leaked")
	}
}

// TestPortfolioContextCancel aborts a run up front and asserts it
// reports failure without leaking lanes.
func TestPortfolioContextCancel(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	g := kernels.MustLoad("mvt")
	m, st := race(ctx, g, arch.New4x4(4), 1, 4)
	if st.Success || m != nil {
		t.Fatal("cancelled portfolio run reported success")
	}
	if st.Portfolio == nil || st.Portfolio.WinnerBackend != "" {
		t.Fatalf("cancelled run should carry empty-winner portfolio stats, got %+v", st.Portfolio)
	}
}

func TestCanonicalBackends(t *testing.T) {
	cases := []struct {
		in   []string
		want string
	}{
		{nil, "rewire,pathfinder,sa"},
		{[]string{"sa", "rewire"}, "rewire,sa"}, // table priority, not input order
		{[]string{"PF*", "pf", "Pathfinder"}, "pathfinder"},
		{[]string{"Rewire", "SA", "rewire"}, "rewire,sa"},
	}
	for _, c := range cases {
		got, err := Canonical(c.in)
		if err != nil {
			t.Fatalf("Canonical(%v): %v", c.in, err)
		}
		if got != c.want {
			t.Errorf("Canonical(%v) = %q, want %q", c.in, got, c.want)
		}
	}
	if _, err := Canonical([]string{"rewire", "simplex"}); err == nil {
		t.Fatal("Canonical accepted an unknown backend")
	} else if _, ok := err.(*UnknownBackendError); !ok {
		t.Fatalf("want *UnknownBackendError, got %T", err)
	}
}

func TestParseBackends(t *testing.T) {
	if got := ParseBackends(""); got != nil {
		t.Fatalf("ParseBackends(\"\") = %v, want nil", got)
	}
	got := ParseBackends(" rewire, sa ,")
	if !reflect.DeepEqual(got, []string{"rewire", "sa"}) {
		t.Fatalf("ParseBackends = %v", got)
	}
}

// TestSeedForBackendDistinct guards the lane-seed contract: backends
// at the same II draw distinct streams, and each backend's lane seed
// is independent of the others' presence.
func TestSeedForBackendDistinct(t *testing.T) {
	seen := map[int64]string{}
	for _, b := range table {
		for ii := 2; ii < 6; ii++ {
			s := sweep.SeedForBackend(42, b.Name, ii)
			if prev, dup := seen[s]; dup {
				t.Fatalf("seed collision between %s@%d and %s", b.Name, ii, prev)
			}
			seen[s] = fmt.Sprintf("%s@%d", b.Name, ii)
		}
	}
}
