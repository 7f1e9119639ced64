package main

import (
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
