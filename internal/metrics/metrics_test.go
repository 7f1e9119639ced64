package metrics

import (
	"math"
	"strings"
	"sync"
	"testing"

	"rewire/internal/trace"
)

func TestCounterGaugeHistogramBasics(t *testing.T) {
	r := NewRegistry()
	c := r.NewCounter("rewire_test_ops_total", "ops")
	c.Inc()
	c.Add(4)
	c.Add(-7) // counters only go up; negative deltas drop
	if got := c.Value(); got != 5 {
		t.Fatalf("counter = %d, want 5", got)
	}

	g := r.NewGauge("rewire_test_queue_depth", "depth")
	g.Set(3)
	g.Add(-1.5)
	if got := g.Value(); got != 1.5 {
		t.Fatalf("gauge = %v, want 1.5", got)
	}

	h := r.NewHistogram("rewire_test_latency_seconds", "lat", []float64{1, 2, 4})
	for _, v := range []float64{0.5, 1, 1.5, 3, 100} {
		h.Observe(v)
	}
	var sb strings.Builder
	if err := r.WritePrometheus(&sb); err != nil {
		t.Fatal(err)
	}
	out := sb.String()
	for _, want := range []string{
		`rewire_test_latency_seconds_bucket{le="1"} 2`,
		`rewire_test_latency_seconds_bucket{le="2"} 3`,
		`rewire_test_latency_seconds_bucket{le="4"} 4`,
		`rewire_test_latency_seconds_bucket{le="+Inf"} 5`,
		`rewire_test_latency_seconds_count 5`,
	} {
		if !strings.Contains(out, want) {
			t.Errorf("output missing %q:\n%s", want, out)
		}
	}
}

func TestLabelledFamilies(t *testing.T) {
	r := NewRegistry()
	v := r.NewCounterVec("rewire_test_requests_total", "reqs", "mapper", "outcome")
	v.With("rewire", "ok").Add(2)
	v.With("rewire", "ok").Inc() // same child
	v.With("sa", "failed").Inc()
	if got := v.With("rewire", "ok").Value(); got != 3 {
		t.Fatalf("child = %d, want 3", got)
	}
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if !strings.Contains(sb.String(), `rewire_test_requests_total{mapper="rewire",outcome="ok"} 3`) {
		t.Fatalf("labelled line missing:\n%s", sb.String())
	}
}

func TestRegistrationPanics(t *testing.T) {
	r := NewRegistry()
	mustPanic := func(name string, fn func()) {
		t.Helper()
		defer func() {
			if recover() == nil {
				t.Errorf("%s: no panic", name)
			}
		}()
		fn()
	}
	mustPanic("bad convention", func() { r.NewCounter("requests_total", "x") })
	mustPanic("counter without _total", func() { r.NewCounter("rewire_test_requests_count", "x") })
	mustPanic("gauge with _total", func() { r.NewGauge("rewire_test_depth_total", "x") })
	mustPanic("reserved suffix", func() { r.NewGauge("rewire_test_queue_sum", "x") })
	mustPanic("reserved label le", func() { r.NewHistogramVec("rewire_test_lat_seconds", "x", nil, "le") })
	r.NewCounter("rewire_test_ops_total", "x")
	mustPanic("type redefinition", func() { r.NewGauge("rewire_test_ops_total", "x") })
	mustPanic("label redefinition", func() { r.NewCounterVec("rewire_test_ops_total", "x", "mapper") })
	mustPanic("wrong label arity", func() {
		r.NewCounterVec("rewire_test_more_total", "x", "a", "b").With("only-one")
	})
	// Re-registering identically is fine and returns the same series.
	c := r.NewCounter("rewire_test_ops_total", "x")
	c.Inc()
	if got := r.NewCounter("rewire_test_ops_total", "x").Value(); got != 1 {
		t.Fatalf("re-registered counter = %d, want 1", got)
	}
}

func TestNilRegistryAndCollectors(t *testing.T) {
	var r *Registry
	c := r.NewCounter("rewire_x_y_total", "x")
	g := r.NewGauge("rewire_x_y_units", "x")
	h := r.NewHistogram("rewire_x_y_seconds", "x", nil)
	cv := r.NewCounterVec("rewire_x_z_total", "x", "l")
	fc := r.NewFloatCounter("rewire_x_w_total", "x")
	c.Inc()
	c.Add(5)
	g.Set(1)
	g.Add(1)
	h.Observe(3)
	cv.With("v").Inc()
	fc.Add(0.25)
	if c.Value() != 0 || g.Value() != 0 || fc.Value() != 0 {
		t.Fatal("nil collectors hold values")
	}
	if err := r.WritePrometheus(&strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	FoldTracer(r, trace.New()) // nil registry fold is a no-op
	FoldTracer(NewRegistry(), nil)
}

func TestDisabledMetricsZeroAlloc(t *testing.T) {
	var r *Registry
	c := r.NewCounter("rewire_x_y_total", "x")
	g := r.NewGauge("rewire_x_y_units", "x")
	h := r.NewHistogram("rewire_x_y_seconds", "x", nil)
	fc := r.NewFloatCounter("rewire_x_w_total", "x")
	n := testing.AllocsPerRun(1000, func() {
		c.Inc()
		g.Set(2)
		h.Observe(0.5)
		fc.Add(0.5)
	})
	if n != 0 {
		t.Fatalf("disabled metrics allocate %v allocs/op, want 0", n)
	}
}

// FloatCounter semantics: monotonic float accumulation, negative and
// NaN deltas dropped, rendered as a counter with a float value.
func TestFloatCounter(t *testing.T) {
	r := NewRegistry()
	fc := r.NewFloatCounter("rewire_gc_pause_seconds_total", "x")
	fc.Add(0.5)
	fc.Add(0.25)
	fc.Add(-1)         // dropped: counters only go up
	fc.Add(math.NaN()) // dropped
	fc.Add(0)          // no-op
	if got := fc.Value(); got != 0.75 {
		t.Fatalf("value = %v, want 0.75", got)
	}
	var b strings.Builder
	if err := r.WritePrometheus(&b); err != nil {
		t.Fatal(err)
	}
	body := b.String()
	if !strings.Contains(body, "# TYPE rewire_gc_pause_seconds_total counter") {
		t.Errorf("float counter not typed as counter:\n%s", body)
	}
	if !strings.Contains(body, "rewire_gc_pause_seconds_total 0.75") {
		t.Errorf("float counter value missing:\n%s", body)
	}
	// The counter naming rule applies: a float counter without _total
	// must be rejected at registration.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("float counter without _total accepted")
			}
		}()
		r.NewFloatCounter("rewire_gc_pause_seconds", "x")
	}()
}

func BenchmarkMetricsDisabled(b *testing.B) {
	var r *Registry
	c := r.NewCounter("rewire_x_y_total", "x")
	h := r.NewHistogram("rewire_x_y_seconds", "x", nil)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		c.Inc()
		h.Observe(1)
	}
}

// TestConcurrentUpdatesDuringRender is the race test: writers hammer
// every collector type while readers render the exposition format.
// Run with -race (the CI race job includes this package).
func TestConcurrentUpdatesDuringRender(t *testing.T) {
	r := NewRegistry()
	cv := r.NewCounterVec("rewire_race_ops_total", "x", "worker")
	g := r.NewGauge("rewire_race_depth_units", "x")
	hv := r.NewHistogramVec("rewire_race_latency_seconds", "x", []float64{1, 2, 4}, "worker")

	const writers = 8
	const perWriter = 500
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			lbl := string(rune('a' + id))
			c := cv.With(lbl)
			h := hv.With(lbl)
			for i := 0; i < perWriter; i++ {
				c.Inc()
				g.Add(1)
				h.Observe(float64(i % 8))
			}
		}(w)
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	for {
		var sb strings.Builder
		if err := r.WritePrometheus(&sb); err != nil {
			t.Fatal(err)
		}
		select {
		case <-done:
			var sb strings.Builder
			r.WritePrometheus(&sb)
			if !strings.Contains(sb.String(), `rewire_race_ops_total{worker="a"} 500`) {
				t.Fatalf("final render lost updates:\n%s", sb.String())
			}
			return
		default:
		}
	}
}

// pipelineCounters and pipelineHistograms are the offline trace metric
// catalog: every Counter()/Histogram() name the mappers register (see
// docs/OBSERVABILITY.md). Adding a pipeline counter means adding it
// here, which keeps the online bridge audited.
var pipelineCounters = []string{
	"route.expansions",
	"route.findpath.calls",
	"route.findpath.found",
	"placements.tried",
	"placements.pruned",
	"placements.forward_rejected",
	"verify.attempts",
	"verify.successes",
	"cluster.amendments",
	"propagate.tuples",
	"propagate.tuples_deduped",
	"intersect.pcandidates",
	"pf.remaps",
	"sa.moves",
	"sweep.attempts",
	"sweep.speculative",
	"sweep.cancelled",
	"sweep.wasted_ms",
}

var pipelineHistograms = []string{
	"cluster.size",
	"intersect.pcandidates_per_node",
}

// TestBridgeNamesFollowConvention is the counter-name audit: every
// offline trace name must bridge to an online name that passes
// CheckName, and the bridge must be injective over the catalog.
func TestBridgeNamesFollowConvention(t *testing.T) {
	seen := map[string]string{}
	for _, n := range pipelineCounters {
		b := BridgeCounterName(n)
		if err := CheckName(b, TypeCounter); err != nil {
			t.Errorf("counter %s bridges to non-conforming %s: %v", n, b, err)
		}
		if prev, dup := seen[b]; dup {
			t.Errorf("bridge collision: %s and %s both map to %s", prev, n, b)
		}
		seen[b] = n
	}
	for _, n := range pipelineHistograms {
		b := BridgeHistogramName(n)
		if err := CheckName(b, TypeHistogram); err != nil {
			t.Errorf("histogram %s bridges to non-conforming %s: %v", n, b, err)
		}
		if prev, dup := seen[b]; dup {
			t.Errorf("bridge collision: %s and %s both map to %s", prev, n, b)
		}
		seen[b] = n
	}
}

func TestFoldTracer(t *testing.T) {
	tr := trace.New()
	tr.Counter("route.expansions").Add(100)
	tr.Counter("placements.tried").Add(7)
	for _, v := range []int64{1, 2, 4, 15} {
		tr.Histogram("cluster.size").Observe(v)
	}
	r := NewRegistry()
	FoldTracer(r, tr)
	FoldTracer(r, tr) // folds accumulate across runs

	var sb strings.Builder
	r.WritePrometheus(&sb)
	out := sb.String()
	for _, want := range []string{
		"rewire_route_expansions_total 200",
		"rewire_placements_tried_total 14",
		`rewire_cluster_size_units_bucket{le="1"} 2`,
		`rewire_cluster_size_units_bucket{le="15"} 8`,
		`rewire_cluster_size_units_bucket{le="+Inf"} 8`,
		"rewire_cluster_size_units_sum 44",
		"rewire_cluster_size_units_count 8",
	} {
		if !strings.Contains(out, want) {
			t.Errorf("fold output missing %q:\n%s", want, out)
		}
	}
}
