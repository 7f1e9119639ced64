// Command tracecheck validates trace files emitted by the mapping
// pipeline: Chrome trace_event documents (*.trace.json, the format
// Perfetto and chrome://tracing load), and JSONL streams — structured
// traces, progress-event logs and QoR ledgers, told apart by their
// meta record's format field (rewire-trace-v1, rewire-progress-v1,
// rewire-ledger-v1). CI runs it over a small traced mapping so a
// malformed exporter fails the build rather than the first person
// opening a trace.
//
// A directory argument is a post-mortem directory as rewire-map -report
// writes it: its events.jsonl is validated like any progress stream and
// then cross-checked against its report.json (see checkReportDir).
//
// Usage:
//
//	tracecheck file.trace.json file.jsonl events.jsonl report-dir ...
//
// The format is picked per file by suffix (.jsonl vs anything else =
// Chrome). Exit status is non-zero if any file is invalid.
package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	if len(os.Args) < 2 {
		fmt.Fprintln(os.Stderr, "usage: tracecheck <trace files...>")
		os.Exit(2)
	}
	bad := false
	for _, path := range os.Args[1:] {
		var err error
		if fi, serr := os.Stat(path); serr == nil && fi.IsDir() {
			err = checkReportDir(path)
		} else if strings.HasSuffix(path, ".jsonl") {
			err = checkJSONL(path)
		} else {
			err = checkChrome(path)
		}
		if err != nil {
			fmt.Fprintf(os.Stderr, "tracecheck: %s: %v\n", path, err)
			bad = true
			continue
		}
		fmt.Printf("tracecheck: %s ok\n", path)
	}
	if bad {
		os.Exit(1)
	}
}

// checkChrome verifies a Chrome trace_event JSON object: it parses, has
// events, and contains at least one complete ("X") span with a name and
// non-negative duration.
func checkChrome(path string) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	var doc struct {
		TraceEvents []struct {
			Ph   string  `json:"ph"`
			Name string  `json:"name"`
			Dur  float64 `json:"dur"`
			Ts   float64 `json:"ts"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("invalid JSON: %w", err)
	}
	if len(doc.TraceEvents) == 0 {
		return fmt.Errorf("no trace events")
	}
	spans := 0
	for _, ev := range doc.TraceEvents {
		if ev.Ph != "X" {
			continue
		}
		if ev.Name == "" {
			return fmt.Errorf("complete event with empty name at ts=%v", ev.Ts)
		}
		if ev.Dur < 0 {
			return fmt.Errorf("span %q has negative duration %v", ev.Name, ev.Dur)
		}
		spans++
	}
	if spans == 0 {
		return fmt.Errorf("no complete (ph=X) span events")
	}
	fmt.Printf("tracecheck: %s: %d events, %d spans\n", path, len(doc.TraceEvents), spans)
	return nil
}

// checkJSONL verifies a structured JSONL file, dispatching on its meta
// record's format field: rewire-trace-v1 (spans/counters) or
// rewire-progress-v1 (progress events).
func checkJSONL(path string) error {
	f, err := os.Open(path)
	if err != nil {
		return err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	if !sc.Scan() {
		if err := sc.Err(); err != nil {
			return err
		}
		return fmt.Errorf("empty file")
	}
	var meta struct {
		Type    string `json:"type"`
		Format  string `json:"format"`
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal(sc.Bytes(), &meta); err != nil {
		return fmt.Errorf("line 1: invalid JSON: %w", err)
	}
	if meta.Type != "meta" {
		return fmt.Errorf("line 1 is not a meta record")
	}
	switch meta.Format {
	case "rewire-trace-v1":
		return checkTraceJSONL(path, sc)
	case "rewire-progress-v1":
		return checkProgressJSONL(path, sc, meta.Dropped)
	case "rewire-ledger-v1":
		return checkLedgerJSONL(path, sc)
	default:
		return fmt.Errorf("unknown JSONL format %q (want rewire-trace-v1, rewire-progress-v1 or rewire-ledger-v1)", meta.Format)
	}
}

// checkLedgerJSONL verifies a QoR ledger after its meta line: every
// run entry parses, carries its identity (kernel, arch, mapper) and
// the three content fingerprints, and timestamps never go backwards
// (the ledger stamps them monotonically under its append lock, so a
// violation means hand-edited or corrupted history).
func checkLedgerJSONL(path string, sc *bufio.Scanner) error {
	line, runs := 1, 0
	var lastTS int64
	for sc.Scan() {
		line++
		var e struct {
			Type   string `json:"type"`
			TSMS   int64  `json:"ts_ms"`
			Source string `json:"source"`
			Kernel string `json:"kernel"`
			Arch   string `json:"arch"`
			Mapper string `json:"mapper"`
			MII    int    `json:"mii"`
			DFGFP  string `json:"dfg_fp"`
			ArchFP string `json:"arch_fp"`
			OptsFP string `json:"opts_fp"`
		}
		if err := json.Unmarshal(sc.Bytes(), &e); err != nil {
			return fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		if e.Type != "run" {
			continue // future record types are allowed
		}
		if e.Kernel == "" || e.Arch == "" || e.Mapper == "" {
			return fmt.Errorf("line %d: run without kernel/arch/mapper identity", line)
		}
		if e.Source == "" {
			return fmt.Errorf("line %d: run without a source", line)
		}
		if e.DFGFP == "" || e.ArchFP == "" || e.OptsFP == "" {
			return fmt.Errorf("line %d: run without content fingerprints", line)
		}
		if e.TSMS <= 0 {
			return fmt.Errorf("line %d: run without a timestamp", line)
		}
		if e.TSMS < lastTS {
			return fmt.Errorf("line %d: ts_ms %d goes backwards past %d", line, e.TSMS, lastTS)
		}
		lastTS = e.TSMS
		runs++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if runs == 0 {
		return fmt.Errorf("no run entries")
	}
	fmt.Printf("tracecheck: %s: %d ledger entries\n", path, runs)
	return nil
}

// checkTraceJSONL verifies a structured trace after its meta line:
// every line is valid JSON, at least one named span follows, and the
// spans form one tree — exactly one parentless span, and every parent
// ID names a span of the same stream. A second root means some phase
// lost its parent (and renders as an unrelated track in Perfetto).
func checkTraceJSONL(path string, sc *bufio.Scanner) error {
	line, spans := 1, 0
	ids := map[uint64]bool{}
	parents := map[uint64]int{} // parent ID -> first line naming it
	var roots []string
	for sc.Scan() {
		line++
		var rec struct {
			Type   string `json:"type"`
			Name   string `json:"name"`
			ID     uint64 `json:"id"`
			Parent uint64 `json:"parent"`
		}
		if err := json.Unmarshal(sc.Bytes(), &rec); err != nil {
			return fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		if rec.Type == "span" {
			if rec.Name == "" {
				return fmt.Errorf("line %d: span without a name", line)
			}
			spans++
			ids[rec.ID] = true
			if rec.Parent == 0 {
				roots = append(roots, rec.Name)
			} else if _, seen := parents[rec.Parent]; !seen {
				parents[rec.Parent] = line
			}
		}
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if spans == 0 {
		return fmt.Errorf("no span records")
	}
	if len(roots) != 1 {
		return fmt.Errorf("%d parentless spans %v, want one tree", len(roots), roots)
	}
	for id, at := range parents {
		if !ids[id] {
			return fmt.Errorf("line %d: parent %d was never emitted", at, id)
		}
	}
	fmt.Printf("tracecheck: %s: %d lines, %d spans\n", path, line, spans)
	return nil
}

// checkProgressJSONL verifies a progress-event log after its meta
// line: every event parses, sequence numbers strictly increase, and
// attempt boundaries nest correctly. When the bus dropped nothing the
// stream is complete, so the checks tighten: the first sequence is 1,
// every attempt_end closes a seen attempt_start, every round falls
// inside an open attempt with the same (II, lane, attempt), and a
// run_end (when present) is the final event. A dropped-oldest stream
// (meta.dropped > 0) is a tail, so an end or a round without its start
// is legitimate there.
func checkProgressJSONL(path string, sc *bufio.Scanner, dropped uint64) error {
	type attemptKey struct {
		lane        string
		ii, attempt int
	}
	open := map[attemptKey]bool{}
	var (
		line     = 1
		events   = 0
		lastSeq  uint64
		lastType string
	)
	for sc.Scan() {
		line++
		var ev struct {
			Seq     uint64  `json:"seq"`
			MS      float64 `json:"ms"`
			Type    string  `json:"type"`
			II      int     `json:"ii"`
			Attempt int     `json:"attempt"`
			Lane    string  `json:"lane"`
		}
		if err := json.Unmarshal(sc.Bytes(), &ev); err != nil {
			return fmt.Errorf("line %d: invalid JSON: %w", line, err)
		}
		if ev.Type == "" {
			return fmt.Errorf("line %d: event without a type", line)
		}
		if ev.MS < 0 {
			return fmt.Errorf("line %d: negative timestamp %v", line, ev.MS)
		}
		if events == 0 {
			if dropped == 0 && ev.Seq != 1 {
				return fmt.Errorf("line %d: complete stream starts at seq %d, want 1", line, ev.Seq)
			}
		} else if ev.Seq <= lastSeq {
			return fmt.Errorf("line %d: seq %d does not increase past %d", line, ev.Seq, lastSeq)
		}
		if lastType == "run_end" {
			return fmt.Errorf("line %d: event after run_end", line)
		}
		k := attemptKey{ev.Lane, ev.II, ev.Attempt}
		switch ev.Type {
		case "attempt_start":
			if open[k] {
				return fmt.Errorf("line %d: attempt II=%d #%d started twice", line, ev.II, ev.Attempt)
			}
			open[k] = true
		case "attempt_end":
			if !open[k] && dropped == 0 {
				return fmt.Errorf("line %d: attempt II=%d #%d ends without a start", line, ev.II, ev.Attempt)
			}
			delete(open, k)
		case "round":
			if !open[k] && dropped == 0 {
				return fmt.Errorf("line %d: round at II=%d #%d (lane %q) outside an open attempt", line, ev.II, ev.Attempt, ev.Lane)
			}
		}
		lastSeq, lastType = ev.Seq, ev.Type
		events++
	}
	if err := sc.Err(); err != nil {
		return err
	}
	if events == 0 {
		return fmt.Errorf("no progress events")
	}
	if lastType == "run_end" && len(open) > 0 {
		return fmt.Errorf("run ended with %d attempts still open", len(open))
	}
	fmt.Printf("tracecheck: %s: %d progress events (%d dropped upstream)\n", path, events, dropped)
	return nil
}

// checkReportDir validates a post-mortem directory: events.jsonl must
// pass checkJSONL, and, unless the bus dropped events (the stream is
// then a tail), it must agree with report.json: one attempt_start per
// attempt of the report's timeline, and a run_end whose II and outcome
// are the report's.
func checkReportDir(dir string) error {
	events := filepath.Join(dir, "events.jsonl")
	if err := checkJSONL(events); err != nil {
		return fmt.Errorf("events.jsonl: %w", err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "report.json"))
	if err != nil {
		return err
	}
	var rep struct {
		Success  bool              `json:"success"`
		II       int               `json:"ii"`
		Attempts []json.RawMessage `json:"attempts"`
	}
	if err := json.Unmarshal(data, &rep); err != nil {
		return fmt.Errorf("report.json: %w", err)
	}
	data, err = os.ReadFile(events)
	if err != nil {
		return err
	}
	lines := strings.Split(strings.TrimSpace(string(data)), "\n")
	var meta struct {
		Dropped uint64 `json:"dropped"`
	}
	if err := json.Unmarshal([]byte(lines[0]), &meta); err != nil {
		return fmt.Errorf("events.jsonl: line 1: %w", err)
	}
	if meta.Dropped > 0 {
		fmt.Printf("tracecheck: %s: %d events dropped, report cross-check skipped\n", dir, meta.Dropped)
		return nil
	}
	type event struct {
		Type    string `json:"type"`
		II      int    `json:"ii"`
		Outcome string `json:"outcome"`
	}
	starts := 0
	var end *event
	for i, line := range lines[1:] {
		var ev event
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			return fmt.Errorf("events.jsonl: line %d: %w", i+2, err)
		}
		switch ev.Type {
		case "attempt_start":
			starts++
		case "run_end":
			end = &ev
		}
	}
	if starts != len(rep.Attempts) {
		return fmt.Errorf("events.jsonl starts %d attempts, report.json lists %d", starts, len(rep.Attempts))
	}
	if end == nil {
		return fmt.Errorf("events.jsonl has no run_end to check against report.json")
	}
	if end.II != rep.II {
		return fmt.Errorf("run_end at II %d, report.json at II %d", end.II, rep.II)
	}
	if (end.Outcome == "ok") != rep.Success {
		return fmt.Errorf("run_end outcome %q, report.json success %v", end.Outcome, rep.Success)
	}
	fmt.Printf("tracecheck: %s: %d attempts and run_end agree with report.json\n", dir, starts)
	return nil
}
