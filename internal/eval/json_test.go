package eval

import (
	"bytes"
	"reflect"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/stats"
)

// WriteJSON → ResultsFromJSON must be lossless: same combos (by kernel
// and architecture name), same per-run results, same Get() answers.
func TestResultsJSONRoundTrip(t *testing.T) {
	combos := []Combo{
		{Kernel: "mvt", Arch: arch.New4x4(4)},
		{Kernel: "bicg(u)", Arch: arch.New8x8(4)},
	}
	in := &Results{
		Combos:  combos,
		ByRun:   map[string]stats.Result{},
		Elapsed: 1234 * time.Millisecond,
	}
	for i, cb := range combos {
		for j, mapper := range Mappers {
			in.ByRun[runKey(mapper, cb)] = stats.Result{
				Mapper: mapper, Kernel: cb.Kernel, Arch: cb.Arch.Name,
				Success: true, II: 3 + i, MII: 2,
				Effort: stats.Effort{
					RemapIterations: 10 * j, ClusterAmendments: i,
					PlacementsTried: int64(100*i + j), VerifyAttempts: 7, VerifySuccesses: 6,
					RouterExpansions: 9999,
				},
				Duration: time.Duration(i+j) * time.Millisecond,
			}
		}
	}

	var buf bytes.Buffer
	if err := in.WriteJSON(&buf); err != nil {
		t.Fatalf("WriteJSON: %v", err)
	}
	out, err := ResultsFromJSON(buf.Bytes())
	if err != nil {
		t.Fatalf("ResultsFromJSON: %v", err)
	}

	if out.Elapsed != in.Elapsed {
		t.Errorf("Elapsed = %v, want %v", out.Elapsed, in.Elapsed)
	}
	if len(out.Combos) != len(in.Combos) {
		t.Fatalf("got %d combos, want %d", len(out.Combos), len(in.Combos))
	}
	for i, cb := range out.Combos {
		if cb.Kernel != in.Combos[i].Kernel || cb.Arch.Name != in.Combos[i].Arch.Name {
			t.Errorf("combo %d = %s@%s, want %s@%s",
				i, cb.Kernel, cb.Arch.Name, in.Combos[i].Kernel, in.Combos[i].Arch.Name)
		}
	}
	if !reflect.DeepEqual(out.ByRun, in.ByRun) {
		t.Errorf("ByRun differs after round trip:\n got %+v\nwant %+v", out.ByRun, in.ByRun)
	}
	// The decoded architectures must be full presets, usable by reports.
	for _, cb := range out.Combos {
		res, ok := out.Get("Rewire", cb)
		if !ok || !res.Success {
			t.Errorf("Get(Rewire, %s@%s) lost the result", cb.Kernel, cb.Arch.Name)
		}
		if cb.Arch.NumMemPEs() == 0 {
			t.Errorf("rebuilt arch %s has no memory PEs", cb.Arch.Name)
		}
	}
}

// Every malformed-input path of ResultsFromJSON must return an error,
// never a half-decoded Results or a panic.
func TestResultsFromJSONRejectsGarbage(t *testing.T) {
	cases := map[string]string{
		"truncated JSON":        "{",
		"empty input":           "",
		"JSON but not object":   `[1,2,3]`,
		"wrong field types":     `{"combos":"nope"}`,
		"bad combo arch":        `{"combos":[{"kernel":"x","arch":"weird"}]}`,
		"bad run arch":          `{"runs":[{"mapper":"Rewire","kernel":"x","arch":"not-a-grid","result":{}}]}`,
		"arch missing suffix":   `{"combos":[{"kernel":"x","arch":"4x4"}]}`,
		"arch empty name":       `{"combos":[{"kernel":"x","arch":""}]}`,
		"run result not object": `{"runs":[{"mapper":"Rewire","kernel":"x","arch":"4x4r4","result":7}]}`,
	}
	for name, in := range cases {
		if _, err := ResultsFromJSON([]byte(in)); err == nil {
			t.Errorf("%s: accepted %q", name, in)
		}
	}
}

// A valid document with zero runs decodes to an empty, usable Results —
// absence of data is not an error.
func TestResultsFromJSONEmptyDocument(t *testing.T) {
	out, err := ResultsFromJSON([]byte(`{"combos":[],"elapsed_ns":0,"runs":[]}`))
	if err != nil {
		t.Fatalf("empty document rejected: %v", err)
	}
	if len(out.Combos) != 0 || len(out.ByRun) != 0 {
		t.Errorf("empty document decoded to %+v", out)
	}
	if _, ok := out.Get("Rewire", Combo{Kernel: "mvt", Arch: arch.New4x4(4)}); ok {
		t.Error("Get on an empty Results claims a result")
	}
}
