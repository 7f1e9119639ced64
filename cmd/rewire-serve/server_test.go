package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"testing"
	"time"

	"rewire"
	"rewire/internal/ledger"
	"rewire/internal/obs"
)

// testServer builds a ready daemon with short budgets on an httptest
// listener.
func testServer(t *testing.T, cfg serverConfig) *httptest.Server {
	t.Helper()
	lg, err := obs.Setup(io.Discard, "debug", "text")
	if err != nil {
		t.Fatal(err)
	}
	s := newServer(cfg, lg)
	s.ready.Store(true)
	ts := httptest.NewServer(s.mux())
	t.Cleanup(ts.Close)
	return ts
}

// postMap sends one mapping request and decodes the response.
func postMap(t *testing.T, ts *httptest.Server, body string) (mapResponse, int) {
	t.Helper()
	resp, err := http.Post(ts.URL+"/map", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out mapResponse
	if resp.StatusCode == http.StatusOK {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatalf("bad response JSON: %v", err)
		}
	}
	return out, resp.StatusCode
}

func get(t *testing.T, url string) (string, int) {
	t.Helper()
	resp, err := http.Get(url)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(b), resp.StatusCode
}

func TestMapEndToEnd(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, FlightSize: 8})
	out, code := postMap(t, ts,
		`{"kernel":"mvt","arch":"4x4r4","mapper":"rewire","seed":1,"time_per_ii_ms":2000,"render":true}`)
	if code != http.StatusOK {
		t.Fatalf("POST /map = %d", code)
	}
	if !out.Success {
		t.Fatalf("mapping failed: %+v", out)
	}
	if out.II < out.MII || out.MII < 1 {
		t.Fatalf("implausible II=%d MII=%d", out.II, out.MII)
	}
	if out.RunID == "" || out.Grid == "" {
		t.Fatalf("missing run_id or grid: %+v", out)
	}
	if out.Counters["route.expansions"] == 0 {
		t.Fatalf("no router work recorded: %v", out.Counters)
	}

	// The run must be visible in the flight recorder...
	runsBody, code := get(t, ts.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /runs = %d", code)
	}
	var runs []runRecord
	if err := json.Unmarshal([]byte(runsBody), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != out.RunID {
		t.Fatalf("flight recorder = %+v, want the one run", runs)
	}

	// ...its trace must download and parse as a Chrome trace...
	traceBody, code := get(t, ts.URL+out.TraceURL)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d", out.TraceURL, code)
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string `json:"ph"`
			Name string `json:"name"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal([]byte(traceBody), &doc); err != nil {
		t.Fatalf("trace is not Chrome trace JSON: %v", err)
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph == "X" {
			spans++
		}
	}
	if spans == 0 {
		t.Fatal("trace has no complete spans")
	}

	// ...and the metrics must show the request and the bridged counters.
	mBody, code := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		`rewire_map_requests_total{mapper="rewire",outcome="ok"} 1`,
		"rewire_route_expansions_total",
		"rewire_map_duration_seconds_bucket",
		"rewire_process_uptime_seconds",
		"rewire_mrrg_cache_hits_total",
		"rewire_mrrg_cache_misses_total",
		"rewire_dist_cache_hits_total",
		"rewire_dist_cache_misses_total",
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestPortfolioMapEndToEnd drives a portfolio request through POST /map
// and checks the racing surface: the answer names the winning backend,
// the lane counters move, and the run's post-mortem report carries the
// winner.
func TestPortfolioMapEndToEnd(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, FlightSize: 8})
	out, code := postMap(t, ts,
		`{"kernel":"mvt","arch":"4x4r4","mapper":"portfolio","seed":7,"time_per_ii_ms":2000}`)
	if code != http.StatusOK {
		t.Fatalf("POST /map = %d", code)
	}
	if !out.Success {
		t.Fatalf("portfolio mapping failed: %+v", out)
	}
	if out.WinnerBackend == "" {
		t.Fatalf("successful portfolio run names no winner: %+v", out)
	}

	// The flight recorder entry carries the winner too.
	runsBody, code := get(t, ts.URL+"/runs")
	if code != http.StatusOK {
		t.Fatalf("GET /runs = %d", code)
	}
	var runs []runRecord
	if err := json.Unmarshal([]byte(runsBody), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].WinnerBackend != out.WinnerBackend {
		t.Fatalf("flight recorder winner = %+v, want %q", runs, out.WinnerBackend)
	}

	// The post-mortem report names the winner.
	reportBody, code := get(t, ts.URL+out.ReportURL)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d", out.ReportURL, code)
	}
	var report struct {
		WinnerBackend string `json:"winner_backend"`
	}
	if err := json.Unmarshal([]byte(reportBody), &report); err != nil {
		t.Fatal(err)
	}
	if report.WinnerBackend != out.WinnerBackend {
		t.Fatalf("report winner %q != response winner %q", report.WinnerBackend, out.WinnerBackend)
	}

	// The lane counters must have moved: exactly one win for the winner,
	// one launched lane per backend per raced II at minimum.
	mBody, code := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	wantWin := fmt.Sprintf(`rewire_portfolio_lane_wins_total{backend=%q} 1`, out.WinnerBackend)
	if !strings.Contains(mBody, wantWin) {
		t.Errorf("/metrics missing %q", wantWin)
	}
	wantLane := fmt.Sprintf(`rewire_portfolio_lanes_total{backend=%q}`, out.WinnerBackend)
	if !strings.Contains(mBody, wantLane) {
		t.Errorf("/metrics missing %q", wantLane)
	}
}

// TestConcurrentMapRequests hammers POST /map from several goroutines;
// under -race this is the daemon's interleaving test (CI runs it).
func TestConcurrentMapRequests(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 4, FlightSize: 8})
	const n = 6
	var wg sync.WaitGroup
	errs := make(chan error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(seed int) {
			defer wg.Done()
			body := fmt.Sprintf(`{"kernel":"mvt","arch":"4x4r4","seed":%d,"time_per_ii_ms":2000}`, seed)
			resp, err := http.Post(ts.URL+"/map", "application/json", strings.NewReader(body))
			if err != nil {
				errs <- err
				return
			}
			defer resp.Body.Close()
			var out mapResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				errs <- err
				return
			}
			if !out.Success {
				errs <- fmt.Errorf("seed %d: mapping failed", seed)
			}
		}(i + 1)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	body, _ := get(t, ts.URL+"/runs")
	var runs []runRecord
	if err := json.Unmarshal([]byte(body), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != n {
		t.Fatalf("flight recorder has %d runs, want %d", len(runs), n)
	}
}

// TestRepeatRequestHitsResultCache: the second identical POST /map is
// served from the result cache — marked cached, same mapping, and the
// resultcache hit counter moves.
func TestRepeatRequestHitsResultCache(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, CacheSize: 32})
	body := `{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}`

	first, code := postMap(t, ts, body)
	if code != http.StatusOK || !first.Success {
		t.Fatalf("first request: code=%d %+v", code, first)
	}
	if first.Cached {
		t.Fatal("first request claims to be cached")
	}
	second, code := postMap(t, ts, body)
	if code != http.StatusOK || !second.Success {
		t.Fatalf("second request: code=%d %+v", code, second)
	}
	if !second.Cached {
		t.Fatal("second identical request was not served from the result cache")
	}
	if second.II != first.II || second.MII != first.MII {
		t.Fatalf("cached answer differs: first II=%d, second II=%d", first.II, second.II)
	}
	if second.RunID == first.RunID {
		t.Fatal("cache hit reused the first request's run_id")
	}

	// A near-identical request (different seed) must compile.
	third, code := postMap(t, ts, `{"kernel":"mvt","arch":"4x4r4","seed":2,"time_per_ii_ms":2000}`)
	if code != http.StatusOK || third.Cached {
		t.Fatalf("near-identical request: code=%d cached=%v, want a fresh compile", code, third.Cached)
	}

	mBody, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"rewire_resultcache_hits_total 1",
		"rewire_resultcache_misses_total 2",
		"rewire_resultcache_evictions_total 0",
		"rewire_resultcache_singleflight_shared_total 0",
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestBatchDedup: a 3-entry batch with 2 identical entries compiles
// twice, answers three times in order, and counts the dedup.
func TestBatchDedup(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, CacheSize: 32})
	body := `{"requests":[
		{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000},
		{"kernel":"atax","arch":"4x4r4","seed":1,"time_per_ii_ms":2000},
		{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}
	]}`
	resp, err := http.Post(ts.URL+"/map/batch", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /map/batch = %d", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 3 {
		t.Fatalf("batch returned %d results, want 3", len(out.Results))
	}
	if out.Deduped != 1 {
		t.Fatalf("deduped = %d, want 1", out.Deduped)
	}
	// Order preserved: mvt, atax, mvt.
	for i, wantKernel := range []string{"mvt", "atax", "mvt"} {
		r := out.Results[i]
		if !r.Success || r.Kernel != wantKernel {
			t.Fatalf("result %d = %+v, want successful %s", i, r, wantKernel)
		}
	}
	if out.Results[0].Deduped || out.Results[1].Deduped || !out.Results[2].Deduped {
		t.Fatalf("dedup flags wrong: %v %v %v",
			out.Results[0].Deduped, out.Results[1].Deduped, out.Results[2].Deduped)
	}
	if out.Results[2].RunID != out.Results[0].RunID {
		t.Fatal("deduped entry does not share its representative's run")
	}
	if out.Results[2].II != out.Results[0].II {
		t.Fatal("deduped entry's II differs from its representative")
	}

	mBody, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		"rewire_serve_batch_requests_total 1",
		"rewire_serve_batch_entries_total 3",
		"rewire_serve_batch_deduped_total 1",
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}

	// The whole batch is rejected only for structural reasons; a single
	// invalid entry fails alone.
	mixed := `{"requests":[{"kernel":"nope","arch":"4x4r4"},{"kernel":"mvt","arch":"4x4r4","time_per_ii_ms":2000}]}`
	resp2, err := http.Post(ts.URL+"/map/batch", "application/json", strings.NewReader(mixed))
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	var out2 batchResponse
	if err := json.NewDecoder(resp2.Body).Decode(&out2); err != nil {
		t.Fatal(err)
	}
	if out2.Results[0].Error == "" || out2.Results[0].Success {
		t.Fatalf("invalid entry did not fail: %+v", out2.Results[0])
	}
	if !out2.Results[1].Success {
		t.Fatalf("valid entry failed alongside an invalid sibling: %+v", out2.Results[1])
	}

	// Structural failures: empty batch and over-cap batch.
	for _, bad := range []string{`{}`, `{"requests":[]}`} {
		r, err := http.Post(ts.URL+"/map/batch", "application/json", strings.NewReader(bad))
		if err != nil {
			t.Fatal(err)
		}
		r.Body.Close()
		if r.StatusCode != http.StatusBadRequest {
			t.Fatalf("empty batch = %d, want 400", r.StatusCode)
		}
	}
}

// TestSubmitPollRoundTrip: POST /map/submit answers 202 immediately;
// polling GET /map/result/{id} eventually yields the finished run.
func TestSubmitPollRoundTrip(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, CacheSize: 32})
	resp, err := http.Post(ts.URL+"/map/submit", "application/json",
		strings.NewReader(`{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}`))
	if err != nil {
		t.Fatal(err)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted || sub.JobID == "" || sub.Status != "running" {
		t.Fatalf("submit = %d %+v, want 202 running", resp.StatusCode, sub)
	}

	deadline := time.Now().Add(30 * time.Second)
	var out mapResponse
	for {
		body, code := get(t, ts.URL+sub.ResultURL)
		if code == http.StatusOK {
			if err := json.Unmarshal([]byte(body), &out); err != nil {
				t.Fatal(err)
			}
			break
		}
		if code != http.StatusAccepted {
			t.Fatalf("poll = %d, want 200 or 202", code)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(50 * time.Millisecond)
	}
	if !out.Success || out.RunID != sub.JobID {
		t.Fatalf("job result = %+v, want success under job id %s", out, sub.JobID)
	}

	// The async run retires into the same flight recorder ring.
	runsBody, _ := get(t, ts.URL+"/runs")
	var runs []runRecord
	if err := json.Unmarshal([]byte(runsBody), &runs); err != nil {
		t.Fatal(err)
	}
	if len(runs) != 1 || runs[0].ID != sub.JobID {
		t.Fatalf("flight recorder = %+v, want the async run", runs)
	}

	// Unknown job: 404. Invalid submission: 400, synchronously.
	if _, code := get(t, ts.URL+"/map/result/doesnotexist"); code != http.StatusNotFound {
		t.Fatalf("unknown job poll = %d, want 404", code)
	}
	badResp, err := http.Post(ts.URL+"/map/submit", "application/json",
		strings.NewReader(`{"kernel":"nope","arch":"4x4r4"}`))
	if err != nil {
		t.Fatal(err)
	}
	badResp.Body.Close()
	if badResp.StatusCode != http.StatusBadRequest {
		t.Fatalf("invalid submit = %d, want 400", badResp.StatusCode)
	}

	mBody, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`rewire_serve_async_jobs_total{state="submitted"} 1`,
		`rewire_serve_async_jobs_total{state="completed"} 1`,
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// TestJobTableEviction pins the capacity discipline: completed jobs
// make room oldest-first; a table full of running jobs rejects.
func TestJobTableEviction(t *testing.T) {
	tb := newJobTable(2)
	if !tb.submit("a", nil) || !tb.submit("b", nil) {
		t.Fatal("empty table rejected submissions")
	}
	if tb.submit("c", nil) {
		t.Fatal("table full of running jobs accepted a third")
	}
	tb.complete("a", mapResponse{RunID: "a"})
	if !tb.submit("c", nil) {
		t.Fatal("completed job was not evicted to make room")
	}
	if _, _, ok := tb.get("a"); ok {
		t.Fatal("evicted job still addressable")
	}
	if _, running, ok := tb.get("b"); !ok || !running {
		t.Fatal("running job lost")
	}
	tb.complete("b", mapResponse{RunID: "b"})
	if resp, running, ok := tb.get("b"); !ok || running || resp.RunID != "b" {
		t.Fatalf("completed job state wrong: ok=%v running=%v resp=%+v", ok, running, resp)
	}
}

func TestMapValidation(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, MaxII: 16, MaxTimePerII: time.Second})
	cases := []struct {
		name, body string
	}{
		{"bad json", `{"kernel":`},
		{"no kernel", `{"arch":"4x4r4"}`},
		{"both kernels", `{"kernel":"mvt","kernel_src":"x","arch":"4x4r4"}`},
		{"unknown kernel", `{"kernel":"nope","arch":"4x4r4"}`},
		{"no arch", `{"kernel":"mvt"}`},
		{"bad arch", `{"kernel":"mvt","arch":"tiny"}`},
		{"bad mapper", `{"kernel":"mvt","arch":"4x4r4","mapper":"ilp"}`},
		{"over max_ii cap", `{"kernel":"mvt","arch":"4x4r4","max_ii":99}`},
		{"over time cap", `{"kernel":"mvt","arch":"4x4r4","time_per_ii_ms":60000}`},
		{"unknown backend", `{"kernel":"mvt","arch":"4x4r4","mapper":"portfolio","portfolio_backends":"rewire,ilp"}`},
		{"backends without portfolio", `{"kernel":"mvt","arch":"4x4r4","mapper":"rewire","portfolio_backends":"sa"}`},
		{"negative portfolio window", `{"kernel":"mvt","arch":"4x4r4","mapper":"portfolio","portfolio_parallelism":-1}`},
		{"empty grid", `{"kernel":"mvt","arch":"0x4r4"}`},
		{"negative registers", `{"kernel":"mvt","arch":"2x2r-3"}`},
		{"huge grid", `{"kernel":"mvt","arch":"4000x4000r4"}`},
		{"huge ADL grid", `{"kernel":"mvt","arch_adl":"grid 4000 x 4000\n"}`},
		{"huge ADL banks", `{"kernel":"mvt","arch_adl":"banks 2000000000\n"}`},
		{"huge unroll", `{"kernel_src":"kernel k\nc[i] = a[i] + b[i]\n","unroll":1099511627776,"arch":"4x4r4"}`},
	}
	for _, tc := range cases {
		if _, code := postMap(t, ts, tc.body); code != http.StatusBadRequest {
			t.Errorf("%s: status %d, want 400", tc.name, code)
		}
	}
	// Validation failures count as requests but never touch the pool.
	body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, `outcome="invalid"`) {
		t.Error("/metrics has no invalid-outcome samples")
	}
	// Hostile input is an error for its request, never the daemon's end.
	if _, code := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz after hostile requests = %d", code)
	}
}

// TestBatchHostileEntry: a batch entry naming an impossible grid fails
// alone with its error; the batch still answers 200.
func TestBatchHostileEntry(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1})
	resp, err := http.Post(ts.URL+"/map/batch", "application/json", strings.NewReader(`{"requests":[
		{"kernel":"mvt","arch":"0x4r4"},
		{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}
	]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("POST /map/batch = %d, want 200", resp.StatusCode)
	}
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if len(out.Results) != 2 || out.Results[0].Success || !strings.Contains(out.Results[0].Error, "0x4r4") {
		t.Fatalf("hostile entry = %+v, want a failure naming its arch", out.Results)
	}
	if !out.Results[1].Success {
		t.Fatalf("valid entry failed beside a hostile one: %+v", out.Results[1])
	}
}

// TestInvalidBodiesCounted: every endpoint bounds its body and counts
// unreadable, over-cap, empty and over-size bodies as invalid requests.
func TestInvalidBodiesCounted(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, MaxBatch: 2})
	// Valid requests padded with whitespace past the endpoint's cap.
	pad := func(n int, body string) string { return strings.Repeat(" ", n) + body }
	mapBody := `{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}`
	cases := []struct{ path, body string }{
		{"/map", `{"kernel":`},
		{"/map", pad(maxBodyBytes, mapBody)},
		{"/map/submit", `{"kernel":`},
		{"/map/submit", pad(maxBodyBytes, mapBody)},
		{"/map/batch", `{"requests":`},
		{"/map/batch", `{"requests":[]}`},
		{"/map/batch", `{"requests":[` + mapBody + "," + mapBody + "," + mapBody + `]}`},
		{"/map/batch", pad(2*maxBodyBytes, `{"requests":[`+mapBody+`]}`)},
	}
	for _, tc := range cases {
		resp, err := http.Post(ts.URL+tc.path, "application/json", strings.NewReader(tc.body))
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("POST %s with %.40q: status %d, want 400", tc.path, strings.TrimSpace(tc.body), resp.StatusCode)
		}
	}
	body, _ := get(t, ts.URL+"/metrics")
	want := fmt.Sprintf(`rewire_map_requests_total{mapper="unknown",outcome="invalid"} %d`, len(cases))
	if !strings.Contains(body, want) {
		t.Errorf("/metrics missing %q", want)
	}
}

func TestHealthAndReadiness(t *testing.T) {
	lg, _ := obs.Setup(io.Discard, "info", "text")
	s := newServer(serverConfig{}, lg)
	ts := httptest.NewServer(s.mux())
	defer ts.Close()

	if _, code := get(t, ts.URL+"/healthz"); code != http.StatusOK {
		t.Fatalf("healthz = %d", code)
	}
	if _, code := get(t, ts.URL+"/readyz"); code != http.StatusServiceUnavailable {
		t.Fatalf("readyz before warmup = %d, want 503", code)
	}
	s.ready.Store(true)
	if _, code := get(t, ts.URL+"/readyz"); code != http.StatusOK {
		t.Fatalf("readyz after warmup = %d", code)
	}
}

func TestRunTraceNotFound(t *testing.T) {
	ts := testServer(t, serverConfig{})
	if _, code := get(t, ts.URL+"/runs/doesnotexist/trace"); code != http.StatusNotFound {
		t.Fatalf("missing run trace = %d, want 404", code)
	}
}

func TestKernelSrcMapping(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1})
	src := "kernel axpy\nparam a\ny[i] = a * x[i] + y[i]\n"
	body, _ := json.Marshal(mapRequest{KernelSrc: src, Arch: "4x4r4", TimePerII: 2000})
	out, code := postMap(t, ts, string(body))
	if code != http.StatusOK {
		t.Fatalf("kernel_src map = %d", code)
	}
	if !out.Success {
		t.Fatalf("axpy failed to map: %+v", out)
	}
}

// slowMapBody is a mapping request that reliably runs for several
// seconds: PF* on the complex FIR kernel of examples/customkernel,
// unrolled eight times, on 8x8r4 fails IIs 8 through 26 before
// committing at 27 (about 7.5 s on two cores), so cancelling it
// mid-sweep exercises the teardown path, not a race with natural
// completion.
const slowMapBody = `{"kernel_src":"kernel cfir\nparam cr, ci\n# complex multiply of sample by coefficient\nxr = sr[i] * cr - si[i] * ci\nxi = sr[i] * ci + si[i] * cr\n# accumulate real/imaginary channels (loop-carried dependencies)\naccr += xr\nacci += xi\noutr[i] = accr\nouti[i] = acci\n# power estimate uses the previous iteration's accumulators\np = accr@1 * accr@1 + acci@1 * acci@1\npow[i] = p\n","unroll":8,"arch":"8x8r4","mapper":"pathfinder","seed":1,"time_per_ii_ms":5000,"sweep_parallelism":4}`

// waitInflightZero polls /metrics until the inflight gauge reads zero,
// failing the test if teardown takes longer than the bound. A cancelled
// sweep unwinds within one mapper inner-loop iteration, so the bound is
// generous.
func waitInflightZero(t *testing.T, ts *httptest.Server, bound time.Duration) {
	t.Helper()
	deadline := time.Now().Add(bound)
	for {
		body, _ := get(t, ts.URL+"/metrics")
		if strings.Contains(body, "rewire_serve_inflight_requests 0") {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("worker slot not released within %s of cancellation", bound)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestClientDisconnectTearsDownSweep is the slot-accounting regression
// test: a client hanging up mid-sweep must tear down every speculative
// II attempt and release the worker slot promptly — long before the
// abandoned run would have finished on its own.
func TestClientDisconnectTearsDownSweep(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, RequestTimeout: 60 * time.Second, FlightSize: 8})

	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/map", strings.NewReader(slowMapBody))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()

	// Let the run get past admission and into the sweep, then hang up.
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled request unexpectedly completed")
	}

	// The single worker slot must come back well before the ~multi-second
	// natural completion of the abandoned run: cancellation reaches every
	// speculative attempt and the slot frees only after they unwind.
	waitInflightZero(t, ts, 5*time.Second)

	body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, `outcome="canceled"`) {
		t.Error("/metrics has no canceled-outcome sample")
	}

	// With the slot free, the next request on the width-1 pool must be
	// served immediately.
	out, code := postMap(t, ts, `{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}`)
	if code != http.StatusOK || !out.Success {
		t.Fatalf("follow-up request after disconnect: code=%d success=%v", code, out.Success)
	}
}

// TestRequestTimeoutTearsDownSweep: a 504 must cancel the in-flight
// sweep; the worker slot frees once the torn-down run returns, and the
// run still lands in the flight recorder.
func TestRequestTimeoutTearsDownSweep(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, RequestTimeout: 400 * time.Millisecond, FlightSize: 8})

	resp, err := http.Post(ts.URL+"/map", "application/json", strings.NewReader(slowMapBody))
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		t.Fatalf("slow request = %d, want 504", resp.StatusCode)
	}

	waitInflightZero(t, ts, 5*time.Second)

	// The torn-down run is still recorded (as a failed run) once drained.
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, _ := get(t, ts.URL+"/runs")
		var runs []runRecord
		if err := json.Unmarshal([]byte(body), &runs); err == nil && len(runs) == 1 {
			if runs[0].Success {
				t.Fatal("torn-down run recorded as successful")
			}
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("torn-down run never reached the flight recorder")
		}
		time.Sleep(50 * time.Millisecond)
	}

	body, _ := get(t, ts.URL+"/metrics")
	if !strings.Contains(body, `outcome="timeout"`) {
		t.Error("/metrics has no timeout-outcome sample")
	}
}

// TestSweepParallelismClamp pins the oversubscription math: the
// per-request window is capped at GOMAXPROCS/Workers (floored at 1).
func TestSweepParallelismClamp(t *testing.T) {
	lg, _ := obs.Setup(io.Discard, "info", "text")
	s := newServer(serverConfig{Workers: runtime.GOMAXPROCS(0)}, lg)
	if got := s.clampSweep(64); got != 1 {
		t.Fatalf("clampSweep(64) with Workers=GOMAXPROCS = %d, want 1", got)
	}
	s2 := newServer(serverConfig{Workers: 1}, lg)
	if got := s2.clampSweep(10_000); got != runtime.GOMAXPROCS(0) {
		t.Fatalf("clampSweep(10000) with Workers=1 = %d, want GOMAXPROCS", got)
	}
	if got := s2.clampSweep(0); got != 1 {
		t.Fatalf("clampSweep(0) = %d, want 1 (serial default)", got)
	}
	if _, code := postMap(t, testServer(t, serverConfig{}),
		`{"kernel":"mvt","arch":"4x4r4","sweep_parallelism":-1}`); code != http.StatusBadRequest {
		t.Fatalf("negative sweep_parallelism = %d, want 400", code)
	}

	// A zero portfolio width races one lane per resolved backend:
	// "pf,pathfinder" names one backend twice, so it asks for one lane.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	s3 := newServer(serverConfig{Workers: 1}, lg)
	for backends, want := range map[string]int{"pf,pathfinder": 1, "sa,rewire": 2, "": 3} {
		req := &mapRequest{Kernel: "mvt", Arch: "4x4r4", PortfolioBackends: backends}
		if got := s3.buildOpts(req, rewire.MapperPortfolio, lg, nil).PortfolioParallelism; got != want {
			t.Errorf("portfolio_backends %q: default lane window %d, want %d", backends, got, want)
		}
	}
}

func TestFlightRecorderRing(t *testing.T) {
	f := newFlightRecorder(3)
	for i := 0; i < 5; i++ {
		f.add(runRecord{ID: fmt.Sprintf("r%d", i)})
	}
	got := f.list()
	if len(got) != 3 {
		t.Fatalf("ring holds %d, want 3", len(got))
	}
	for i, want := range []string{"r4", "r3", "r2"} {
		if got[i].ID != want {
			t.Fatalf("list[%d] = %s, want %s (newest first)", i, got[i].ID, want)
		}
	}
	if _, ok := f.get("r1"); ok {
		t.Fatal("evicted run still addressable")
	}
	if _, ok := f.get("r3"); !ok {
		t.Fatal("retained run not addressable")
	}
}

func TestMetricsExpositionContentType(t *testing.T) {
	ts := testServer(t, serverConfig{})
	resp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Fatalf("content type = %q", ct)
	}
}

// TestQoREndpoints maps once against a file-backed ledger and checks
// that the run shows up in GET /qor, renders on /qor.html, lands in
// the ledger file, and that /metrics carries the build-info and
// process gauges.
func TestQoREndpoints(t *testing.T) {
	dir := t.TempDir()
	led, err := ledger.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer led.Close()
	ts := testServer(t, serverConfig{Workers: 2, FlightSize: 8, Ledger: led})

	out, code := postMap(t, ts,
		`{"kernel":"mvt","arch":"4x4r4","mapper":"rewire","seed":1,"time_per_ii_ms":2000}`)
	if code != http.StatusOK || !out.Success {
		t.Fatalf("POST /map = %d success=%v", code, out.Success)
	}

	body, code := get(t, ts.URL+"/qor")
	if code != http.StatusOK {
		t.Fatalf("GET /qor = %d", code)
	}
	var qor qorResponse
	if err := json.Unmarshal([]byte(body), &qor); err != nil {
		t.Fatalf("bad /qor JSON: %v", err)
	}
	if qor.Runs != 1 || len(qor.Groups) != 1 {
		t.Fatalf("/qor = %+v, want 1 run in 1 group", qor)
	}
	g := qor.Groups[0]
	if g.Kernel != "mvt" || g.Arch != "4x4r4" || g.Mapper != "rewire" ||
		g.Successes != 1 || g.BestII == 0 {
		t.Errorf("/qor group wrong: %+v", g)
	}
	if qor.Ledger == "" || qor.Build.GoVersion == "" {
		t.Errorf("/qor misses ledger path or build info: %+v", qor)
	}

	html, code := get(t, ts.URL+"/qor.html")
	if code != http.StatusOK || !strings.Contains(html, "mvt@4x4r4") {
		t.Errorf("GET /qor.html = %d, dashboard misses the run", code)
	}

	// The run must be durable: the ledger file parses and holds it.
	es, err := ledger.ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 1 || es[0].Source != "serve" || es[0].DFGFP == "" {
		t.Errorf("ledger file = %+v, want one serve entry with fingerprints", es)
	}
	if es[0].Attempts == 0 {
		t.Errorf("ledger entry has no attempt summary: %+v", es[0])
	}

	mBody, code := get(t, ts.URL+"/metrics")
	if code != http.StatusOK {
		t.Fatalf("GET /metrics = %d", code)
	}
	for _, want := range []string{
		"rewire_build_info{",
		"rewire_process_uptime_seconds",
		"rewire_process_goroutines_units",
		"rewire_process_heap_alloc_bytes",
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// waitOutcome polls /metrics until the pathfinder requests_total series
// for outcome reads want.
func waitOutcome(t *testing.T, ts *httptest.Server, outcome string, want int) {
	t.Helper()
	series := fmt.Sprintf(`rewire_map_requests_total{mapper="pathfinder",outcome=%q} %d`, outcome, want)
	deadline := time.Now().Add(5 * time.Second)
	for {
		body, _ := get(t, ts.URL+"/metrics")
		if strings.Contains(body, series) {
			return
		}
		if time.Now().After(deadline) {
			t.Fatalf("/metrics never showed %q", series)
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestBatchEntryTimeoutCounted: a batch entry cut by RequestTimeout is a
// timeout, not a failed run; its slot frees once the sweep unwinds.
func TestBatchEntryTimeoutCounted(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, RequestTimeout: 400 * time.Millisecond, FlightSize: 8})
	resp, err := http.Post(ts.URL+"/map/batch", "application/json",
		strings.NewReader(`{"requests":[`+slowMapBody+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var out batchResponse
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK || len(out.Results) != 1 || out.Results[0].Success || out.Results[0].Error == "" {
		t.Fatalf("batch = %d %+v, want 200 with one cut-short entry", resp.StatusCode, out)
	}
	waitInflightZero(t, ts, 5*time.Second)
	waitOutcome(t, ts, "timeout", 1)
	if body, _ := get(t, ts.URL+"/metrics"); strings.Contains(body, `rewire_map_requests_total{mapper="pathfinder",outcome="failed"}`) {
		t.Error("a batch entry cut by its deadline was counted as failed")
	}
}

// TestJobTimeoutCounted: an async job cut by JobTimeout completes with
// an error, is counted as a timeout, and its run is still recorded once
// it unwinds.
func TestJobTimeoutCounted(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, JobTimeout: 400 * time.Millisecond, FlightSize: 8})
	sub := submitJob(t, ts.URL, slowMapBody)
	out := pollResult(t, ts.URL, sub)
	if out.Success || out.Error == "" || out.RunID != sub.JobID {
		t.Fatalf("job result = %+v, want a cut-short failure under job id %s", out, sub.JobID)
	}
	waitInflightZero(t, ts, 5*time.Second)
	waitOutcome(t, ts, "timeout", 1)
	deadline := time.Now().Add(5 * time.Second)
	for {
		if _, code := get(t, ts.URL+"/runs/"+sub.JobID+"/trace"); code == http.StatusOK {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("cut-short job never reached the flight recorder")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestBatchClientDisconnectCounted: a batch whose client hangs up
// mid-run tears its entries down and counts them as canceled.
func TestBatchClientDisconnectCounted(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 1, RequestTimeout: 60 * time.Second, FlightSize: 8})
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, ts.URL+"/map/batch",
		strings.NewReader(`{"requests":[`+slowMapBody+`]}`))
	if err != nil {
		t.Fatal(err)
	}
	errc := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(req)
		if err == nil {
			resp.Body.Close()
		}
		errc <- err
	}()
	time.Sleep(300 * time.Millisecond)
	cancel()
	if err := <-errc; err == nil {
		t.Fatal("cancelled batch unexpectedly completed")
	}
	waitInflightZero(t, ts, 5*time.Second)
	waitOutcome(t, ts, "canceled", 1)
}
