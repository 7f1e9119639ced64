package main

import (
	"encoding/json"
	"math"
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"time"
)

func TestPoissonScheduleIsSeededSortedAndExponential(t *testing.T) {
	const n, window = 20000, 100 * time.Second
	a := poissonSchedule(rand.New(rand.NewSource(7)), n, window)
	b := poissonSchedule(rand.New(rand.NewSource(7)), n, window)
	if !reflect.DeepEqual(a, b) {
		t.Fatal("the same seed gave two schedules")
	}
	if reflect.DeepEqual(a, poissonSchedule(rand.New(rand.NewSource(8)), n, window)) {
		t.Fatal("two seeds gave the same schedule")
	}
	if len(a) != n || !sort.SliceIsSorted(a, func(i, j int) bool { return a[i] < a[j] }) {
		t.Fatal("schedule is not n sorted offsets")
	}
	if a[0] < 0 || a[n-1] >= window {
		t.Fatalf("offsets %v..%v leave the window", a[0], a[n-1])
	}
	// Exponential gaps have a coefficient of variation of 1.
	var gaps []float64
	for i := 1; i < n; i++ {
		gaps = append(gaps, float64(a[i]-a[i-1]))
	}
	mean := sum(gaps) / float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	cv := math.Sqrt(ss/float64(len(gaps))) / mean
	if wantMean := float64(window) / n; math.Abs(mean/wantMean-1) > 0.02 || math.Abs(cv-1) > 0.05 {
		t.Fatalf("gap mean %v (want %v), cv %.3f (want 1)", time.Duration(mean), time.Duration(wantMean), cv)
	}
}

func TestOpenLoopTimesLatencyFromTheDueTime(t *testing.T) {
	dues := []time.Duration{0, ms(1), ms(2)}
	stall := ms(50)
	tm := openLoop(dues, 1, func(i int) {
		if i == 0 {
			time.Sleep(stall)
		}
	})
	// Request 1 was due at 1 ms but its only connection was busy until
	// 50 ms: its latency counts that wait, although the call itself took
	// no time once sent.
	if got := tm[1].latency(); got < stall-ms(1) {
		t.Fatalf("latency of a request queued behind a stall = %v, want at least %v", got, stall-ms(1))
	}
	if tm[1].done-tm[1].sent > ms(5) {
		t.Fatalf("the call itself took %v", tm[1].done-tm[1].sent)
	}
	// The generator is not held up by busy connections.
	for i, x := range tm {
		if x.due != dues[i] || x.late() > ms(5) {
			t.Fatalf("request %d: due %v, dispatched %v late", i, x.due, x.late())
		}
	}
}

func TestServePlanFixesTraceNovelShareAndSequence(t *testing.T) {
	budgets := map[int]bool{}
	hot := map[serveEntry]bool{}
	for _, e := range serveHot {
		hot[e] = true
	}
	var (
		sequences [][]serveEntry
		schedules [][]time.Duration
		novelAt   [][]int
		reads     [][]serveEntry
	)
	for _, seed := range []int64{1, 2} {
		dues, ops := servePlan(seed, 20)
		schedules = append(schedules, dues)
		var at []int
		var read []serveEntry
		for i, op := range ops {
			if op.novel {
				at = append(at, i)
			} else {
				read = append(read, op.entry)
			}
		}
		novelAt, reads = append(novelAt, at), append(reads, read)
		if len(dues) != 800 || len(ops) != 800 {
			t.Fatalf("seed %d: %d requests, want 800", seed, len(ops))
		}
		if !sort.SliceIsSorted(dues, func(i, j int) bool { return dues[i] < dues[j] }) {
			t.Fatalf("seed %d: schedule not sorted", seed)
		}
		var sequence []serveEntry
		for _, op := range ops {
			var e serveEntry
			if err := json.Unmarshal(op.body, &e); err != nil {
				t.Fatal(err)
			}
			if e.key() != op.entry.key() {
				t.Fatalf("request body %+v is not the planned entry %+v", e, op.entry)
			}
			if !op.novel {
				if !hot[op.entry] || e.TimePerIIMS != int(budgetPerII.Milliseconds()) {
					t.Fatalf("repeat request %+v is not a hot entry under the default budget", e)
				}
				continue
			}
			if seed == 1 {
				if budgets[e.TimePerIIMS] {
					t.Fatalf("two novel requests share the budget %d ms, so one would hit the cache", e.TimePerIIMS)
				}
				budgets[e.TimePerIIMS] = true
			}
			sequence = append(sequence, op.entry)
		}
		if len(sequence) != 64 {
			t.Fatalf("seed %d: %d novel requests, want 64", seed, len(sequence))
		}
		sequences = append(sequences, sequence)
	}
	if !reflect.DeepEqual(sequences[0], sequences[1]) {
		t.Fatal("two seeds send different sequences of novel requests")
	}
	if !reflect.DeepEqual(schedules[0], schedules[1]) || !reflect.DeepEqual(novelAt[0], novelAt[1]) {
		t.Fatal("two seeds replay different arrival traces")
	}
	if reflect.DeepEqual(reads[0], reads[1]) {
		t.Fatal("two seeds read the same hot-set entries in the same order")
	}
}

// The novel requests are a uniform draw from the Poisson arrivals, so
// their gaps are exponential too: over a long plan, the gaps between
// novel arrivals have a coefficient of variation near 1.
func TestServePlanNovelArrivalsArePoisson(t *testing.T) {
	dues, ops := servePlan(3, 1000)
	var gaps []float64
	last := time.Duration(-1)
	for i, op := range ops {
		if !op.novel {
			continue
		}
		if last >= 0 {
			gaps = append(gaps, float64(dues[i]-last))
		}
		last = dues[i]
	}
	mean := sum(gaps) / float64(len(gaps))
	var ss float64
	for _, g := range gaps {
		ss += (g - mean) * (g - mean)
	}
	if cv := math.Sqrt(ss/float64(len(gaps))) / mean; math.Abs(cv-1) > 0.1 {
		t.Fatalf("novel gaps have cv %.3f over %d gaps, want about 1", cv, len(gaps))
	}
}
