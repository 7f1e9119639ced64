package ledger

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"rewire/internal/diag"
)

func entry(kernel, mapper string, ii int) Entry {
	return Entry{
		Source: "test", Kernel: kernel, Arch: "4x4r4", Mapper: mapper,
		Success: ii > 0, II: ii, MII: 2, CompileMS: 12.5,
		DFGFP: "aaaaaaaaaaaaaaaa", ArchFP: "bbbbbbbbbbbbbbbb", OptsFP: "cccccccccccccccc",
	}
}

// A file-backed ledger must round-trip: meta line first, then every
// appended run, readable by both ReadFile and ReadSnapshot.
func TestRoundTrip(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry("mvt", "Rewire", 3)); err != nil {
		t.Fatal(err)
	}
	if err := l.Append(entry("atax", "PF*", 0)); err != nil {
		t.Fatal(err)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	es, meta, err := ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if meta.Format != FormatID {
		t.Errorf("meta format %q, want %q", meta.Format, FormatID)
	}
	if len(es) != 2 {
		t.Fatalf("read %d entries, want 2", len(es))
	}
	if es[0].Kernel != "mvt" || es[0].II != 3 || !es[0].Success {
		t.Errorf("entry 0 mangled: %+v", es[0])
	}
	// Mapper aliases are canonicalised on append.
	if es[0].Mapper != "rewire" || es[1].Mapper != "pathfinder" {
		t.Errorf("mappers not normalised: %q, %q", es[0].Mapper, es[1].Mapper)
	}
	if es[0].TSMS == 0 || es[1].TSMS < es[0].TSMS {
		t.Errorf("timestamps not stamped monotonically: %d, %d", es[0].TSMS, es[1].TSMS)
	}
	if es[0].Build.GoVersion == "" {
		t.Error("build info not stamped")
	}

	snap, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(snap) != 2 {
		t.Errorf("snapshot read %d entries, want 2", len(snap))
	}
}

// Reopening an existing ledger must not write a second meta line, and
// must reload the previous entries into the in-memory mirror.
func TestReopenNoDuplicateMeta(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	l.Append(entry("mvt", "rewire", 3))
	l.Close()

	l2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(l2.Entries()); got != 1 {
		t.Errorf("mirror holds %d entries after reopen, want 1", got)
	}
	l2.Append(entry("mvt", "rewire", 4))
	l2.Close()

	data, err := os.ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	metas := strings.Count(string(data), `"type":"meta"`)
	if metas != 1 {
		t.Errorf("file has %d meta lines after reopen, want 1", metas)
	}
	es, _, err := ReadFile(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 2 {
		t.Errorf("file has %d entries, want 2", len(es))
	}
}

// Concurrent appenders must never interleave bytes: every line of the
// resulting file must parse as exactly one JSON record. Run under
// -race this also proves the mutex discipline.
func TestConcurrentAppendsNoInterleave(t *testing.T) {
	dir := t.TempDir()
	l, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	const writers, perWriter = 8, 50
	var wg sync.WaitGroup
	for w := 0; w < writers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWriter; i++ {
				e := entry(fmt.Sprintf("k%d", w), "rewire", 3)
				e.Seed = int64(i)
				if err := l.Append(e); err != nil {
					t.Errorf("append: %v", err)
				}
			}
		}(w)
	}
	wg.Wait()
	l.Close()

	f, err := os.Open(filepath.Join(dir, FileName))
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	lines, prevTS := 0, int64(0)
	for sc.Scan() {
		lines++
		var m map[string]any
		if err := json.Unmarshal(sc.Bytes(), &m); err != nil {
			t.Fatalf("line %d is not valid JSON (interleaved write?): %v\n%s", lines, err, sc.Text())
		}
		if m["type"] == "run" {
			ts := int64(m["ts_ms"].(float64))
			if ts < prevTS {
				t.Errorf("line %d: ts_ms %d < previous %d", lines, ts, prevTS)
			}
			prevTS = ts
		}
	}
	if want := 1 + writers*perWriter; lines != want {
		t.Errorf("file has %d lines, want %d", lines, want)
	}
}

// The nil ledger is the disabled ledger: every method must no-op.
func TestNilSafe(t *testing.T) {
	var l *Ledger
	if err := l.Append(entry("mvt", "rewire", 3)); err != nil {
		t.Errorf("nil Append: %v", err)
	}
	if es := l.Entries(); es != nil {
		t.Errorf("nil Entries = %v", es)
	}
	if err := l.Close(); err != nil {
		t.Errorf("nil Close: %v", err)
	}
	if p := l.Path(); p != "" {
		t.Errorf("nil Path = %q", p)
	}
}

// TestDisabledLedgerZeroAlloc pins the disabled-ledger contract: with
// no ledger configured (a nil *Ledger), recording a completed run costs
// a pointer check and nothing else: no marshaling, no lock, no
// allocation.
func TestDisabledLedgerZeroAlloc(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	var l *Ledger
	seed := int64(0)
	allocs := testing.AllocsPerRun(1000, func() {
		seed++
		if err := l.Append(Entry{
			Source: "bench", Kernel: "mvt", Arch: "4x4r4", Mapper: "rewire",
			Success: true, II: 3, MII: 2, Seed: seed,
		}); err != nil {
			t.Fatal(err)
		}
	})
	if allocs != 0 {
		t.Fatalf("nil Append allocates %v times, want 0", allocs)
	}
}

// A memory ledger keeps entries without a backing file.
func TestMemoryLedger(t *testing.T) {
	l := NewMemory()
	l.Append(entry("mvt", "rewire", 3))
	l.Append(entry("mvt", "rewire", 4))
	if got := len(l.Entries()); got != 2 {
		t.Errorf("memory ledger holds %d entries, want 2", got)
	}
	if l.Path() != "" {
		t.Errorf("memory ledger has path %q", l.Path())
	}
	if err := l.Close(); err != nil {
		t.Errorf("memory Close: %v", err)
	}
}

// Read must reject streams without the meta line, with a wrong format,
// and with malformed JSON.
func TestReadRejectsBadStreams(t *testing.T) {
	cases := map[string]string{
		"no meta":      `{"type":"run","kernel":"mvt"}` + "\n",
		"wrong format": `{"type":"meta","format":"rewire-trace-v1"}` + "\n",
		"bad json":     `{"type":"meta","format":"rewire-ledger-v1"}` + "\n" + `{"type":"run",` + "\n",
		"empty":        "",
	}
	for name, in := range cases {
		if _, _, err := Read(strings.NewReader(in)); err == nil {
			t.Errorf("%s: Read accepted bad stream", name)
		}
	}
}

// ReadSnapshot over a directory must merge every *.jsonl and sort by
// timestamp.
func TestReadSnapshotDirMerge(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ts ...int64) {
		var b strings.Builder
		meta, _ := json.Marshal(Meta{Type: "meta", Format: FormatID})
		b.Write(meta)
		b.WriteByte('\n')
		for _, t := range ts {
			e := entry("mvt", "rewire", 3)
			e.Type = "run"
			e.TSMS = t
			line, _ := json.Marshal(e)
			b.Write(line)
			b.WriteByte('\n')
		}
		os.WriteFile(filepath.Join(dir, name), []byte(b.String()), 0o644)
	}
	write("a.jsonl", 30, 40)
	write("b.jsonl", 10, 20)

	es, err := ReadSnapshot(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(es) != 4 {
		t.Fatalf("merged %d entries, want 4", len(es))
	}
	for i := 1; i < len(es); i++ {
		if es[i].TSMS < es[i-1].TSMS {
			t.Errorf("entries not sorted by ts: %d after %d", es[i].TSMS, es[i-1].TSMS)
		}
	}
}

// Aggregate groups by (kernel, arch, mapper), tracks best II, success
// rate and non-cached compile times, and sorts deterministically.
func TestAggregate(t *testing.T) {
	es := []Entry{
		entry("mvt", "rewire", 4),
		entry("mvt", "rewire", 3),
		entry("mvt", "rewire", 0),
		entry("atax", "pathfinder", 5),
	}
	es[1].CompileMS = 20
	es[2].Cached = true
	groups := Aggregate(es)
	if len(groups) != 2 {
		t.Fatalf("got %d groups, want 2", len(groups))
	}
	// Sorted by kernel: atax first.
	if groups[0].Kernel != "atax" || groups[1].Kernel != "mvt" {
		t.Errorf("groups not sorted: %q, %q", groups[0].Kernel, groups[1].Kernel)
	}
	g := groups[1]
	if g.Runs != 3 || g.Successes != 2 || g.BestII != 3 || g.MII != 2 {
		t.Errorf("mvt group wrong: %+v", g)
	}
	if got := g.SuccessRate(); got < 0.66 || got > 0.67 {
		t.Errorf("success rate = %v, want 2/3", got)
	}
	// The cached run's compile time is excluded.
	if len(g.CompileMS) != 2 {
		t.Errorf("compile times include cached run: %v", g.CompileMS)
	}
	if got := len(g.IIs); got != 2 {
		t.Errorf("II series has %d points, want 2", got)
	}
}

func TestMedian(t *testing.T) {
	if got := Median(nil); got != 0 {
		t.Errorf("Median(nil) = %v", got)
	}
	if got := Median([]float64{3, 1, 2}); got != 2 {
		t.Errorf("odd median = %v, want 2", got)
	}
	if got := Median([]float64{4, 1, 2, 3}); got != 2.5 {
		t.Errorf("even median = %v, want 2.5", got)
	}
}

// AttachReport distils the diag post-mortem into the summary counters.
func TestAttachReport(t *testing.T) {
	r := &diag.Report{
		Attempts: []diag.AttemptReport{
			{II: 3, Rounds: 4}, {II: 4, Rounds: 6},
		},
		Contested:  []diag.ResourceReport{{Resource: "link(3,S)@t2"}},
		Unroutable: []diag.EdgeReport{{Edge: 1}, {Edge: 2}},
	}
	var e Entry
	e.AttachReport(r)
	if e.Attempts != 2 || e.Rounds != 10 || e.Contested != 1 || e.Unroutable != 2 {
		t.Errorf("summary wrong: %+v", e)
	}
	var clean Entry
	clean.AttachReport(nil)
	if clean.Attempts != 0 {
		t.Error("nil report mutated entry")
	}
}
