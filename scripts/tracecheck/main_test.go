package main

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// writeTrace writes a rewire-trace-v1 stream holding the given span
// lines after its meta record.
func writeTrace(t *testing.T, spans ...string) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "run.jsonl")
	lines := append([]string{`{"type":"meta","format":"rewire-trace-v1"}`}, spans...)
	if err := os.WriteFile(path, []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestTraceJSONLOneTree(t *testing.T) {
	ok := writeTrace(t,
		`{"type":"span","id":3,"parent":2,"name":"ii"}`,
		`{"type":"span","id":2,"parent":1,"name":"sweep"}`,
		`{"type":"span","id":1,"name":"portfolio.map"}`,
		`{"type":"counter","name":"sweep.attempts","value":1}`)
	if err := checkJSONL(ok); err != nil {
		t.Fatalf("one-tree trace rejected: %v", err)
	}
}

func TestTraceJSONLRejectsSecondRoot(t *testing.T) {
	path := writeTrace(t,
		`{"type":"span","id":2,"name":"ii"}`,
		`{"type":"span","id":1,"name":"portfolio.map"}`)
	err := checkJSONL(path)
	if err == nil || !strings.Contains(err.Error(), "2 parentless spans") {
		t.Fatalf("two roots: err = %v, want a parentless-span error", err)
	}
}

func TestTraceJSONLRejectsUnknownParent(t *testing.T) {
	path := writeTrace(t,
		`{"type":"span","id":2,"parent":7,"name":"ii"}`,
		`{"type":"span","id":1,"name":"rewire.map"}`)
	err := checkJSONL(path)
	if err == nil || !strings.Contains(err.Error(), "parent 7 was never emitted") {
		t.Fatalf("dangling parent: err = %v, want a never-emitted error", err)
	}
}

// writeReportDir writes a post-mortem directory: a progress stream with
// the given meta dropped count and events, and a report.json.
func writeReportDir(t *testing.T, dropped int, report string, events ...string) string {
	t.Helper()
	dir := t.TempDir()
	meta := fmt.Sprintf(`{"type":"meta","format":"rewire-progress-v1","events":%d,"published":%d,"dropped":%d}`,
		len(events), len(events)+dropped, dropped)
	lines := append([]string{meta}, events...)
	if err := os.WriteFile(filepath.Join(dir, "events.jsonl"), []byte(strings.Join(lines, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "report.json"), []byte(report), 0o644); err != nil {
		t.Fatal(err)
	}
	return dir
}

// mappedRun is a complete stream of one run mapped at II 3 after one
// failed attempt at II 2.
var mappedRun = []string{
	`{"seq":1,"type":"run_start","mii":2}`,
	`{"seq":2,"type":"attempt_start","ii":2}`,
	`{"seq":3,"type":"attempt_end","ii":2,"outcome":"failed"}`,
	`{"seq":4,"type":"attempt_start","ii":3}`,
	`{"seq":5,"type":"attempt_end","ii":3,"outcome":"ok"}`,
	`{"seq":6,"type":"run_end","ii":3,"outcome":"ok"}`,
}

func TestReportDirCrossCheck(t *testing.T) {
	for _, c := range []struct {
		name, report string
		dropped      int
		events       []string
		wantErr      string
	}{
		{"agrees", `{"success":true,"ii":3,"attempts":[{},{}]}`, 0, mappedRun, ""},
		{"attempt count", `{"success":true,"ii":3,"attempts":[{}]}`, 0, mappedRun, "starts 2 attempts, report.json lists 1"},
		{"ii", `{"success":true,"ii":4,"attempts":[{},{}]}`, 0, mappedRun, "run_end at II 3, report.json at II 4"},
		{"outcome", `{"success":false,"ii":3,"attempts":[{},{}]}`, 0, mappedRun, `outcome "ok", report.json success false`},
		{"dropped tail skips", `{"success":true,"ii":3,"attempts":[{}]}`, 2, mappedRun[3:], ""},
	} {
		err := checkReportDir(writeReportDir(t, c.dropped, c.report, c.events...))
		switch {
		case c.wantErr == "" && err != nil:
			t.Errorf("%s: %v", c.name, err)
		case c.wantErr != "" && (err == nil || !strings.Contains(err.Error(), c.wantErr)):
			t.Errorf("%s: err = %v, want %q", c.name, err, c.wantErr)
		}
	}
}
