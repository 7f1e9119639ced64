// Package ledger is the persistent QoR record: an append-only JSONL
// store of completed mapping runs. Every producer of results — the eval
// harness, rewire-experiments, the serve daemon's flight recorder —
// appends one Entry per finished run, keyed by the same content
// fingerprints the result cache uses, and stamped with the build
// identity of the binary that produced it. The ledger is what quality
// trends, regression gates (scripts/qordiff) and the QoR dashboard
// (internal/viz, /qor.html) are computed from.
//
// The file format follows the repo's meta-line-first JSONL convention
// (rewire-trace-v1, rewire-progress-v1): the first line is a meta
// record naming the format, every later line is one run. Appends are a
// single Write of a whole line under a mutex, so concurrent writers in
// one process can never interleave bytes; O_APPEND keeps separate
// processes sharing a file safe on POSIX filesystems.
//
// A nil *Ledger is the disabled ledger: Append is a no-op costing one
// pointer check and zero allocations (pinned by
// TestDisabledLedgerZeroAlloc), so call sites never guard.
package ledger

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"rewire/internal/arch"
	"rewire/internal/buildinfo"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/resultcache"
	"rewire/internal/stats"
)

// FormatID identifies the ledger JSONL schema, carried in the meta
// line; scripts/tracecheck dispatches its validator on it.
const FormatID = "rewire-ledger-v1"

// FileName is the ledger file a directory-backed ledger appends to.
const FileName = "ledger.jsonl"

// memoryCap bounds the in-memory mirror a long-lived daemon keeps for
// /qor: the newest entries win, the file (when there is one) keeps
// everything.
const memoryCap = 8192

// Meta is the first line of a ledger file.
type Meta struct {
	Type      string         `json:"type"` // always "meta"
	Format    string         `json:"format"`
	CreatedMS int64          `json:"created_ms"`
	Build     buildinfo.Info `json:"build"`
}

// Entry is one completed mapping run. Entries are self-contained: the
// fingerprints identify what was compiled, the build info identifies
// the code that compiled it, so two ledger snapshots from different
// checkouts can be diffed without any shared state.
type Entry struct {
	Type string `json:"type"` // always "run"
	// TSMS is the completion time in Unix milliseconds. Append stamps it
	// when zero and clamps it monotonically non-decreasing per ledger,
	// so readers may rely on file order ≡ time order.
	TSMS int64 `json:"ts_ms"`
	// Source names the producer: "eval", "experiments" or "serve".
	Source string `json:"source"`

	Kernel string `json:"kernel"`
	Arch   string `json:"arch"`
	// Mapper is canonicalised by Append via resultcache.NormalizeMapper
	// so "PF*" (eval) and "pathfinder" (serve) land in the same group.
	Mapper string `json:"mapper"`
	Seed   int64  `json:"seed"`

	Success bool `json:"success"`
	// Cached marks a run served from the result cache; qordiff and the
	// dashboard exclude cached compile times from trend statistics.
	Cached    bool    `json:"cached,omitempty"`
	II        int     `json:"ii,omitempty"`
	MII       int     `json:"mii"`
	CompileMS float64 `json:"compile_ms"`
	// WinnerBackend names the portfolio backend whose lane produced the
	// committed mapping; empty for single-mapper runs (and for failed
	// portfolio runs). Absent in pre-portfolio snapshots, which older
	// and newer readers alike treat as empty.
	WinnerBackend string `json:"winner_backend,omitempty"`

	// DFGFP/ArchFP/OptsFP are sha256-short (16 hex chars) digests of the
	// result cache's canonical fingerprint components. The full
	// fingerprints are unbounded serialisations; the digests keep
	// entries one short line while preserving exact-identity grouping.
	DFGFP  string `json:"dfg_fp"`
	ArchFP string `json:"arch_fp"`
	OptsFP string `json:"opts_fp"`

	// Attempt/contention summary distilled from the diag post-mortem
	// (AttachReport): how hard the run was, not just how it ended.
	Attempts   int `json:"attempts,omitempty"`
	Rounds     int `json:"rounds,omitempty"`
	Contested  int `json:"contested,omitempty"`
	Unroutable int `json:"unroutable,omitempty"`

	Build buildinfo.Info `json:"build"`
}

// Ledger is an append-only run store. File-backed ledgers (Open) mirror
// the newest entries in memory so aggregation never re-reads the file;
// memory ledgers (NewMemory) are the mirror alone.
type Ledger struct {
	mu      sync.Mutex
	f       *os.File
	path    string
	lastTS  int64
	entries []Entry
}

// Open returns a ledger appending to <dir>/ledger.jsonl, creating the
// directory and the file (with its meta line) as needed. An existing
// file is reloaded into the in-memory mirror so aggregates survive a
// daemon restart.
func Open(dir string) (*Ledger, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	path := filepath.Join(dir, FileName)
	l := &Ledger{path: path}
	if prev, _, err := ReadFile(path); err == nil {
		if len(prev) > memoryCap {
			prev = prev[len(prev)-memoryCap:]
		}
		l.entries = prev
		if n := len(prev); n > 0 {
			l.lastTS = prev[n-1].TSMS
		}
	} else if !os.IsNotExist(err) {
		return nil, err
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return nil, fmt.Errorf("ledger: %w", err)
	}
	l.f = f
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("ledger: %w", err)
	}
	if st.Size() == 0 {
		meta := Meta{Type: "meta", Format: FormatID,
			CreatedMS: time.Now().UnixMilli(), Build: buildinfo.Get()}
		line, _ := json.Marshal(meta)
		if _, err := f.Write(append(line, '\n')); err != nil {
			f.Close()
			return nil, fmt.Errorf("ledger: meta: %w", err)
		}
	}
	return l, nil
}

// NewMemory returns a ledger with no backing file — the serve daemon's
// default, so /qor always has the process's own history to aggregate.
func NewMemory() *Ledger { return &Ledger{} }

// Path returns the backing file path, "" for memory ledgers. Safe on
// nil.
func (l *Ledger) Path() string {
	if l == nil {
		return ""
	}
	return l.path
}

// Append records one finished run. It stamps a monotonic timestamp,
// canonicalises the mapper name and fills missing build info, then
// writes the entry as a single line. Safe on nil (no-op, zero
// allocations).
func (l *Ledger) Append(e Entry) error {
	if l == nil {
		return nil
	}
	e.Type = "run"
	e.Mapper = resultcache.NormalizeMapper(e.Mapper)
	if e.Build.GoVersion == "" {
		e.Build = buildinfo.Get()
	}

	l.mu.Lock()
	defer l.mu.Unlock()
	if e.TSMS == 0 {
		e.TSMS = time.Now().UnixMilli()
	}
	if e.TSMS < l.lastTS {
		e.TSMS = l.lastTS
	}
	l.lastTS = e.TSMS

	l.entries = append(l.entries, e)
	if len(l.entries) > memoryCap {
		l.entries = l.entries[len(l.entries)-memoryCap:]
	}
	if l.f == nil {
		return nil
	}
	line, err := json.Marshal(e)
	if err != nil {
		return fmt.Errorf("ledger: marshal: %w", err)
	}
	// One Write for line+newline: concurrent appenders (and O_APPEND
	// across processes) can reorder whole lines but never interleave.
	if _, err := l.f.Write(append(line, '\n')); err != nil {
		return fmt.Errorf("ledger: append: %w", err)
	}
	return nil
}

// Entries returns a copy of the in-memory mirror, oldest first. Safe on
// nil (returns nil).
func (l *Ledger) Entries() []Entry {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	out := make([]Entry, len(l.entries))
	copy(out, l.entries)
	return out
}

// Close releases the backing file. Safe on nil and on memory ledgers.
func (l *Ledger) Close() error {
	if l == nil {
		return nil
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}

// NewEntry is the one constructor of a run's record. source names the
// producer, req is the run's fingerprint (portfolio.Request.Fingerprint,
// which also names the mapper and seed), cached marks a result the
// cache served, and r, when non-nil, adds the attempt and contention
// summary. The fingerprints are digests of the result cache's key for
// g, a and req, so equal effective requests carry equal digests.
func NewEntry(source string, g *dfg.Graph, a *arch.CGRA, req resultcache.Request, res stats.Result, cached bool, r *diag.Report) Entry {
	k := resultcache.KeyFor(g, a, req)
	e := Entry{
		Source: source,
		Kernel: g.Name, Arch: a.Name, Mapper: req.Mapper, Seed: req.Seed,
		Success: res.Success, Cached: cached, II: res.II, MII: res.MII,
		CompileMS: float64(res.Duration) / float64(time.Millisecond),
		DFGFP:     hashShort(k.DFG), ArchFP: hashShort(k.Arch), OptsFP: hashShort(k.Opts),
	}
	if res.Portfolio != nil {
		e.WinnerBackend = res.Portfolio.WinnerBackend
	}
	e.AttachReport(r)
	return e
}

func hashShort(s string) string {
	h := sha256.Sum256([]byte(s))
	return hex.EncodeToString(h[:8])
}

// AttachReport distils a diag post-mortem into the entry's attempt and
// contention summary. Safe on a nil report (leaves the entry as-is).
func (e *Entry) AttachReport(r *diag.Report) {
	if r == nil {
		return
	}
	e.Attempts = len(r.Attempts)
	for _, a := range r.Attempts {
		e.Rounds += a.Rounds
	}
	e.Contested = len(r.Contested)
	e.Unroutable = len(r.Unroutable)
}

// Read parses one ledger stream: a meta line declaring FormatID, then
// run entries. Lines of other types are skipped so the format can grow.
func Read(r io.Reader) ([]Entry, Meta, error) {
	var meta Meta
	var out []Entry
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 4*1024*1024)
	n := 0
	for sc.Scan() {
		n++
		line := sc.Bytes()
		if len(line) == 0 {
			continue
		}
		var probe struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal(line, &probe); err != nil {
			return nil, meta, fmt.Errorf("ledger: line %d: %w", n, err)
		}
		switch probe.Type {
		case "meta":
			if err := json.Unmarshal(line, &meta); err != nil {
				return nil, meta, fmt.Errorf("ledger: line %d: meta: %w", n, err)
			}
			if meta.Format != FormatID {
				return nil, meta, fmt.Errorf("ledger: line %d: format %q, want %q", n, meta.Format, FormatID)
			}
		case "run":
			var e Entry
			if err := json.Unmarshal(line, &e); err != nil {
				return nil, meta, fmt.Errorf("ledger: line %d: %w", n, err)
			}
			out = append(out, e)
		}
	}
	if err := sc.Err(); err != nil {
		return nil, meta, fmt.Errorf("ledger: %w", err)
	}
	if n == 0 {
		return nil, meta, fmt.Errorf("ledger: empty stream")
	}
	if meta.Format == "" {
		return nil, meta, fmt.Errorf("ledger: no %s meta line", FormatID)
	}
	return out, meta, nil
}

// ReadFile reads one ledger file.
func ReadFile(path string) ([]Entry, Meta, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, Meta{}, err
	}
	defer f.Close()
	return Read(f)
}

// ReadSnapshot reads a ledger snapshot: a single JSONL file, or a
// directory whose *.jsonl files are merged and re-sorted by timestamp
// (stable, so same-millisecond entries keep file order). This is the
// input form scripts/qordiff takes.
func ReadSnapshot(path string) ([]Entry, error) {
	st, err := os.Stat(path)
	if err != nil {
		return nil, err
	}
	if !st.IsDir() {
		es, _, err := ReadFile(path)
		return es, err
	}
	files, err := filepath.Glob(filepath.Join(path, "*.jsonl"))
	if err != nil {
		return nil, err
	}
	sort.Strings(files)
	var all []Entry
	for _, f := range files {
		es, _, err := ReadFile(f)
		if err != nil {
			return nil, fmt.Errorf("%s: %w", f, err)
		}
		all = append(all, es...)
	}
	if len(all) == 0 {
		return nil, fmt.Errorf("ledger: no entries under %s", path)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TSMS < all[j].TSMS })
	return all, nil
}

// Group aggregates every run of one (kernel, arch, mapper) triple, in
// timestamp order — the unit qordiff compares and the dashboard renders.
type Group struct {
	Kernel string
	Arch   string
	Mapper string

	Runs      int
	Successes int
	// BestII is the lowest II any successful run achieved, 0 when none
	// succeeded. MII is the lowest MII observed (MII can differ across
	// archs only, so within a group it is effectively constant).
	BestII int
	MII    int
	// IIs lists successful runs' IIs in time order (sparkline input).
	IIs []int
	// CompileMS lists non-cached runs' compile times in time order.
	CompileMS []float64
	LastTSMS  int64
	// WinnerCounts tallies portfolio wins per backend name; empty for
	// single-mapper groups (their entries carry no winner).
	WinnerCounts map[string]int
}

// SuccessRate is Successes/Runs, 0 for an empty group.
func (g Group) SuccessRate() float64 {
	if g.Runs == 0 {
		return 0
	}
	return float64(g.Successes) / float64(g.Runs)
}

// TopWinner returns the portfolio backend that won most often in this
// group and its share of the recorded wins; ("", 0) when the group has
// no winner records (every single-mapper group). Ties break
// alphabetically so rendering is deterministic.
func (g Group) TopWinner() (backend string, share float64) {
	total := 0
	for name, n := range g.WinnerCounts {
		total += n
		if n > g.WinnerCounts[backend] || (n == g.WinnerCounts[backend] && (backend == "" || name < backend)) {
			backend = name
		}
	}
	if total == 0 {
		return "", 0
	}
	return backend, float64(g.WinnerCounts[backend]) / float64(total)
}

// Aggregate groups entries by (kernel, arch, mapper) and returns the
// groups sorted by that triple — deterministic for diffing and
// rendering.
func Aggregate(entries []Entry) []Group {
	idx := map[[3]string]int{}
	var groups []Group
	for _, e := range entries {
		key := [3]string{e.Kernel, e.Arch, resultcache.NormalizeMapper(e.Mapper)}
		i, ok := idx[key]
		if !ok {
			i = len(groups)
			idx[key] = i
			groups = append(groups, Group{Kernel: key[0], Arch: key[1], Mapper: key[2]})
		}
		g := &groups[i]
		g.Runs++
		if e.Success {
			g.Successes++
			g.IIs = append(g.IIs, e.II)
			if g.BestII == 0 || e.II < g.BestII {
				g.BestII = e.II
			}
		}
		if e.MII > 0 && (g.MII == 0 || e.MII < g.MII) {
			g.MII = e.MII
		}
		if !e.Cached {
			g.CompileMS = append(g.CompileMS, e.CompileMS)
		}
		if e.WinnerBackend != "" {
			if g.WinnerCounts == nil {
				g.WinnerCounts = map[string]int{}
			}
			g.WinnerCounts[e.WinnerBackend]++
		}
		if e.TSMS > g.LastTSMS {
			g.LastTSMS = e.TSMS
		}
	}
	sort.Slice(groups, func(i, j int) bool {
		a, b := groups[i], groups[j]
		if a.Kernel != b.Kernel {
			return a.Kernel < b.Kernel
		}
		if a.Arch != b.Arch {
			return a.Arch < b.Arch
		}
		return a.Mapper < b.Mapper
	})
	return groups
}

// Median returns the median of xs, 0 for an empty slice. It copies
// before sorting, so callers' time-ordered slices stay intact.
func Median(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := make([]float64, len(xs))
	copy(s, xs)
	sort.Float64s(s)
	if n := len(s); n%2 == 1 {
		return s[n/2]
	} else {
		return (s[n/2-1] + s[n/2]) / 2
	}
}
