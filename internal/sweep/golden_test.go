package sweep_test

import (
	"context"
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"sync"
	"testing"
	"time"

	"rewire"
)

var update = flag.Bool("update", false, "rewrite testdata/golden.json from the current code")

const goldenPath = "testdata/golden.json"

// goldenRun pins everything one mapping run decided. Width-independent
// fields are pinned at every width; the progress-event sequence, the
// per-name span counts and the tracer's counter totals depend on the
// schedule (at width > 1 the counters also book cancelled speculative
// attempts), so they are pinned at width 1 (the serial sweep) only.
type goldenRun struct {
	Success           bool             `json:"success"`
	II                int              `json:"ii"`
	MII               int              `json:"mii"`
	RemapIterations   int              `json:"remap_iterations"`
	ClusterAmendments int              `json:"cluster_amendments"`
	PlacementsTried   int64            `json:"placements_tried"`
	VerifyAttempts    int64            `json:"verify_attempts"`
	VerifySuccesses   int64            `json:"verify_successes"`
	RouterExpansions  int64            `json:"router_expansions"`
	Winner            string           `json:"winner,omitempty"`
	Mapping           string           `json:"mapping,omitempty"`
	Events            string           `json:"events,omitempty"`
	NumEvents         int              `json:"num_events,omitempty"`
	Spans             map[string]int   `json:"spans,omitempty"`
	Counters          map[string]int64 `json:"counters,omitempty"`
}

// goldenCase is one run of the matrix, keyed by its name.
type goldenCase struct {
	mapper rewire.MapperName
	kernel string
	seed   int64
	width  int
}

func (c goldenCase) name() string {
	return fmt.Sprintf("%s/%s/seed%d/w%d", c.mapper, c.kernel, c.seed, c.width)
}

func goldenCases() []goldenCase {
	var cs []goldenCase
	add := func(mapper rewire.MapperName, kernels ...string) {
		for _, k := range kernels {
			for _, seed := range []int64{1, 7, 42} {
				for _, w := range []int{1, 4} {
					cs = append(cs, goldenCase{mapper, k, seed, w})
				}
			}
		}
	}
	add(rewire.MapperRewire, "mvt", "atax")
	add(rewire.MapperPathFinder, "mvt", "atax")
	add(rewire.MapperPortfolio, "mvt", "atax")
	add(rewire.MapperSA, "mvt")
	return cs
}

// runGolden maps one case through the public API with a budget that
// never binds, so only the mappers' work bounds decide the outcome.
func runGolden(t *testing.T, c goldenCase) goldenRun {
	t.Helper()
	g, err := rewire.LoadKernel(c.kernel)
	if err != nil {
		t.Fatal(err)
	}
	opt := rewire.Options{Mapper: c.mapper, Seed: c.seed, TimePerII: time.Hour}
	if c.mapper == rewire.MapperPortfolio {
		opt.PortfolioParallelism = c.width
	} else {
		opt.SweepParallelism = c.width
	}
	if c.width == 1 {
		opt.Tracer = rewire.NewTracer()
		opt.Progress = rewire.NewProgressBus(1 << 16)
	}
	m, res, _ := rewire.MapCtx(context.Background(), g, rewire.New4x4(4), opt)
	out := goldenRun{
		Success: res.Success, II: res.II, MII: res.MII,
		RemapIterations: res.RemapIterations, ClusterAmendments: res.ClusterAmendments,
		PlacementsTried: res.PlacementsTried, VerifyAttempts: res.VerifyAttempts,
		VerifySuccesses: res.VerifySuccesses, RouterExpansions: res.RouterExpansions,
	}
	if res.Portfolio != nil {
		out.Winner = res.Portfolio.WinnerBackend
	}
	if m != nil {
		h := sha256.New()
		for v, p := range m.Place {
			fmt.Fprintf(h, "p%d:%d,%d;", v, p.PE, p.Time)
		}
		for e, r := range m.Routes {
			fmt.Fprintf(h, "e%d:%v;", e, r)
		}
		fmt.Fprintf(h, "b%v", m.BankPorts)
		out.Mapping = fmt.Sprintf("%x", h.Sum(nil))
	}
	if c.width == 1 {
		if _, dropped := opt.Progress.Stats(); dropped != 0 {
			t.Fatalf("progress bus dropped %d events; raise its capacity", dropped)
		}
		h := sha256.New()
		evs := opt.Progress.Events()
		for _, e := range evs {
			e.MS = 0
			b, _ := json.Marshal(e)
			h.Write(b)
			h.Write([]byte{'\n'})
		}
		out.Events = fmt.Sprintf("%x", h.Sum(nil))
		out.NumEvents = len(evs)
		out.Spans = map[string]int{}
		for _, s := range opt.Tracer.Spans() {
			out.Spans[s.Name]++
		}
		out.Counters = opt.Tracer.CounterTotals()
	}
	return out
}

// TestGoldenMappings pins committed mappings, effort counters, winners
// and (serially) the progress stream and span shape against a file
// recorded by an earlier build, so a refactor that is meant to change
// nothing can prove it across commits. Regenerate deliberately with
//
//	go test ./internal/sweep -run TestGoldenMappings -update
func TestGoldenMappings(t *testing.T) {
	var want map[string]goldenRun
	if !*update {
		data, err := os.ReadFile(goldenPath)
		if err != nil {
			t.Fatalf("%v (record it with -update)", err)
		}
		if err := json.Unmarshal(data, &want); err != nil {
			t.Fatal(err)
		}
	}
	var mu sync.Mutex
	got := map[string]goldenRun{}
	t.Run("matrix", func(t *testing.T) {
		for _, c := range goldenCases() {
			c := c
			t.Run(c.name(), func(t *testing.T) {
				t.Parallel()
				r := runGolden(t, c)
				mu.Lock()
				got[c.name()] = r
				mu.Unlock()
				if *update {
					return
				}
				w, ok := want[c.name()]
				if !ok {
					t.Fatalf("no golden entry (record it with -update)")
				}
				if !reflect.DeepEqual(r, w) {
					t.Fatalf("run diverged from golden:\n got %+v\nwant %+v", r, w)
				}
			})
		}
	})
	if !*update {
		if len(want) != len(got) {
			t.Fatalf("golden file holds %d runs, the matrix %d", len(want), len(got))
		}
		return
	}
	data, err := json.MarshalIndent(got, "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	if err := os.MkdirAll(filepath.Dir(goldenPath), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(goldenPath, append(data, '\n'), 0o644); err != nil {
		t.Fatal(err)
	}
}
