package main

import (
	"bufio"
	"encoding/json"
	"net/http"
	"strings"
	"testing"
	"time"

	"rewire"
)

// failingMapBody is a mapping request that reliably fails fast: a hard
// kernel on a register-starved fabric, capped at an II it cannot reach
// under a small budget. The post-mortem of exactly this kind of run is
// what the diagnostics surface exists for.
const failingMapBody = `{"kernel":"gramsch","arch":"4x4r1","mapper":"pathfinder","seed":1,"max_ii":4,"time_per_ii_ms":300}`

// submitJob posts to /map/submit and returns the parsed 202 answer.
func submitJob(t *testing.T, ts string, body string) submitResponse {
	t.Helper()
	resp, err := http.Post(ts+"/map/submit", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("submit = %d, want 202", resp.StatusCode)
	}
	var sub submitResponse
	if err := json.NewDecoder(resp.Body).Decode(&sub); err != nil {
		t.Fatal(err)
	}
	return sub
}

// pollResult polls /map/result/{id} until the job completes.
func pollResult(t *testing.T, ts string, sub submitResponse) mapResponse {
	t.Helper()
	deadline := time.Now().Add(30 * time.Second)
	for {
		resp, err := http.Get(ts + sub.ResultURL)
		if err != nil {
			t.Fatal(err)
		}
		if resp.StatusCode == http.StatusOK {
			var out mapResponse
			if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
				t.Fatal(err)
			}
			resp.Body.Close()
			return out
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusAccepted {
			t.Fatalf("poll = %d, want 200 or 202", resp.StatusCode)
		}
		if time.Now().After(deadline) {
			t.Fatal("job never completed")
		}
		time.Sleep(50 * time.Millisecond)
	}
}

// TestFailedJobResultCarriesReport is the failure-diagnostics
// regression test: a failed async job's result body must include the
// post-mortem summary — outcome, the IIs that were attempted, and at
// least one contested resource with its contenders — plus a report URL
// that serves the full document as valid schema-tagged JSON and HTML.
func TestFailedJobResultCarriesReport(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, FlightSize: 8})
	sub := submitJob(t, ts.URL, failingMapBody)
	out := pollResult(t, ts.URL, sub)
	if out.Success {
		t.Skip("gramsch unexpectedly mapped; cannot exercise the failure report")
	}
	if out.Error == "" {
		t.Fatalf("failed job has no error: %+v", out)
	}
	if out.Report == nil {
		t.Fatal("failed job's result body carries no report summary")
	}
	if out.Report.Outcome != "failed" || len(out.Report.IIsAttempted) == 0 {
		t.Fatalf("report summary = %+v, want failed with attempted IIs", out.Report)
	}
	if len(out.Report.TopContested) == 0 {
		t.Fatal("report summary names no contested resources")
	}
	if out.ReportURL == "" {
		t.Fatal("result body has no report_url")
	}

	// The full report downloads as valid JSON under the v1 schema.
	body, code := get(t, ts.URL+out.ReportURL)
	if code != http.StatusOK {
		t.Fatalf("GET %s = %d", out.ReportURL, code)
	}
	var report rewire.DiagReport
	if err := json.Unmarshal([]byte(body), &report); err != nil {
		t.Fatalf("report is not valid JSON: %v", err)
	}
	if report.Schema != "rewire-report-v1" || report.Success {
		t.Fatalf("report schema=%q success=%v, want failed rewire-report-v1", report.Schema, report.Success)
	}
	if len(report.Contested) == 0 {
		t.Fatal("full report names no contested resources")
	}

	// The HTML rendering serves too.
	htmlBody, code := get(t, ts.URL+out.ReportURL+".html")
	if code != http.StatusOK || !strings.Contains(htmlBody, "<!DOCTYPE html>") {
		t.Fatalf("GET %s.html = %d, body %.60q", out.ReportURL, code, htmlBody)
	}

	// Unknown run: 404.
	if _, code := get(t, ts.URL+"/runs/doesnotexist/report"); code != http.StatusNotFound {
		t.Fatalf("missing report = %d, want 404", code)
	}

	// The diag metrics moved.
	mBody, _ := get(t, ts.URL+"/metrics")
	for _, want := range []string{
		`rewire_diag_reports_total{outcome="failed"} 1`,
		"rewire_diag_contested_resources_units_bucket",
		"rewire_map_progress_events_total",
	} {
		if !strings.Contains(mBody, want) {
			t.Errorf("/metrics missing %q", want)
		}
	}
}

// sseEvent is one parsed SSE frame.
type sseEvent struct {
	id, event, data string
}

// readSSE consumes an SSE stream until the terminal "end" event or EOF,
// returning the frames.
func readSSE(t *testing.T, resp *http.Response) []sseEvent {
	t.Helper()
	var (
		out []sseEvent
		cur sseEvent
	)
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		switch {
		case line == "":
			if cur.event != "" || cur.data != "" {
				out = append(out, cur)
			}
			if cur.event == "end" {
				return out
			}
			cur = sseEvent{}
		case strings.HasPrefix(line, "id: "):
			cur.id = line[4:]
		case strings.HasPrefix(line, "event: "):
			cur.event = line[7:]
		case strings.HasPrefix(line, "data: "):
			cur.data = line[6:]
		}
	}
	return out
}

// TestEventsStreamsProgress: an async job's SSE stream delivers at
// least one progress event before the terminal frame, in publish
// order, and works for late subscribers via the retained replay.
func TestEventsStreamsProgress(t *testing.T) {
	ts := testServer(t, serverConfig{Workers: 2, FlightSize: 8, CacheSize: 4})
	const body = `{"kernel":"mvt","arch":"4x4r4","seed":1,"time_per_ii_ms":2000}`
	sub := submitJob(t, ts.URL, body)
	if sub.EventsURL == "" {
		t.Fatal("submit answer has no events_url")
	}

	// Subscribe while the job runs (or just after — replay covers both).
	resp, err := http.Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %d", sub.EventsURL, resp.StatusCode)
	}
	if ct := resp.Header.Get("Content-Type"); ct != "text/event-stream" {
		t.Fatalf("content type = %q", ct)
	}
	evs := readSSE(t, resp)
	if len(evs) < 2 {
		t.Fatalf("stream delivered %d frames, want progress plus terminal", len(evs))
	}
	if evs[0].event != "run_start" {
		t.Fatalf("first frame = %q, want run_start", evs[0].event)
	}
	if evs[len(evs)-1].event != "end" {
		t.Fatalf("last frame = %q, want end", evs[len(evs)-1].event)
	}
	sawRunEnd := false
	for _, ev := range evs {
		if ev.event == "run_end" {
			sawRunEnd = true
		}
		if ev.event != "end" {
			var parsed rewire.ProgressEvent
			if err := json.Unmarshal([]byte(ev.data), &parsed); err != nil {
				t.Fatalf("frame %q data is not JSON: %v", ev.event, err)
			}
		}
	}
	if !sawRunEnd {
		t.Fatal("stream ended without a run_end event")
	}

	// The job result is intact alongside the stream.
	out := pollResult(t, ts.URL, sub)
	if !out.Success {
		t.Fatalf("job failed: %+v", out)
	}

	// A second (late) subscriber replays the retained events and ends.
	resp2, err := http.Get(ts.URL + sub.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	evs2 := readSSE(t, resp2)
	if len(evs2) < 2 || evs2[len(evs2)-1].event != "end" {
		t.Fatalf("late subscriber got %d frames, want full replay plus end", len(evs2))
	}

	// The same request again is served from the result cache; its stream
	// still opens with run_start and closes with run_end.
	warm := submitJob(t, ts.URL, body)
	if out := pollResult(t, ts.URL, warm); !out.Cached || !out.Success {
		t.Fatalf("warmed job = %+v, want a cached success", out)
	}
	resp3, err := http.Get(ts.URL + warm.EventsURL)
	if err != nil {
		t.Fatal(err)
	}
	defer resp3.Body.Close()
	var got []string
	for _, ev := range readSSE(t, resp3) {
		got = append(got, ev.event)
	}
	if strings.Join(got, " ") != "run_start run_end end" {
		t.Fatalf("cache-served stream = %v, want run_start, run_end, end", got)
	}

	// Unknown job: 404.
	r404, err := http.Get(ts.URL + "/map/events/doesnotexist")
	if err != nil {
		t.Fatal(err)
	}
	r404.Body.Close()
	if r404.StatusCode != http.StatusNotFound {
		t.Fatalf("unknown job events = %d, want 404", r404.StatusCode)
	}

	// Published events landed on the counter once the job completed.
	mBody, _ := get(t, ts.URL+"/metrics")
	if strings.Contains(mBody, "rewire_map_progress_events_total 0") {
		t.Error("rewire_map_progress_events_total never moved")
	}
}
