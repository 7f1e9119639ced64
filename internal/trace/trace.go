// Package trace is the mapper's structured tracing and metrics layer:
// hierarchical spans with wall-clock timestamps and key/value attributes
// around every pipeline phase (DFG construction, MRRG build, initial
// mapping, cluster amendment, probe propagation, tuple intersection,
// Placement(U) enumeration, routing verification), plus named counters
// and histograms that aggregate correctly across worker pools.
//
// The entire API is nil-safe: a nil *Tracer is the disabled tracer, and
// every method on a nil Tracer, Span, Counter or Histogram is a single
// pointer check that returns immediately without allocating. Mapper hot
// paths therefore carry instrumentation unconditionally; the disabled
// cost is ~zero (pinned by BenchmarkTracerDisabled and
// TestDisabledTracerZeroAlloc).
//
// Two exporters turn a finished trace into files: WriteJSONL (one JSON
// record per line: meta, spans, counters, histograms) and
// WriteChromeTrace (the Chrome trace_event format, loadable in
// chrome://tracing or https://ui.perfetto.dev). See docs/OBSERVABILITY.md.
package trace

import (
	"sync"
	"sync/atomic"
	"time"
)

// Tracer collects spans, counters and histograms for one traced run. All
// methods are safe for concurrent use; the span lane bookkeeping and the
// event buffer are guarded by one mutex, counters are atomics.
//
// The zero value is not usable; construct with New. A nil *Tracer is the
// disabled tracer.
type Tracer struct {
	mu       sync.Mutex
	t0       time.Time
	spans    []SpanRecord
	laneTops []*Span // lane -> innermost open span, nil = free lane
	nextID   uint64

	cmu      sync.Mutex
	counters map[string]*Counter
	hists    map[string]*Histogram
}

// New returns an enabled tracer whose clock starts now.
func New() *Tracer {
	return &Tracer{
		t0:       time.Now(),
		counters: make(map[string]*Counter),
		hists:    make(map[string]*Histogram),
	}
}

// Enabled reports whether the tracer records anything. It is the guard
// call sites use to skip work that only produces span attributes.
func (t *Tracer) Enabled() bool { return t != nil }

// Span is one open interval of the trace. A nil *Span (from a disabled
// tracer) accepts every method as a no-op.
type Span struct {
	tr     *Tracer
	par    *Span
	id     uint64
	parent uint64 // 0 = root
	name   string
	lane   int
	start  time.Duration
	attrs  []Attr
}

// Attr is one key/value span attribute. Exactly one of the value fields
// is meaningful, selected by Kind.
type Attr struct {
	Key  string
	Kind AttrKind
	Int  int64
	Str  string
	Bool bool
}

// AttrKind discriminates Attr values.
type AttrKind uint8

// Attribute kinds.
const (
	KindInt AttrKind = iota
	KindStr
	KindBool
)

// Value returns the attribute's value as an interface (for export).
func (a Attr) Value() any {
	switch a.Kind {
	case KindStr:
		return a.Str
	case KindBool:
		return a.Bool
	default:
		return a.Int
	}
}

// SpanRecord is one completed span, as exported.
type SpanRecord struct {
	ID     uint64
	Parent uint64 // 0 for root spans
	Name   string
	Lane   int           // export track (Chrome tid); nesting-correct per lane
	Start  time.Duration // since the tracer's start
	Dur    time.Duration
	Attrs  []Attr
}

// StartSpan opens a span under parent (nil parent = root span). On a nil
// tracer it returns nil, and every method of the returned nil span is a
// no-op — callers never need to branch.
//
// Lanes: a child reuses its parent's lane when the parent is the lane's
// innermost open span (the sequential case); concurrent siblings get
// fresh lanes. Lanes become Chrome trace tids, so nested spans render
// as stacked slices and parallel work renders as parallel tracks.
func (t *Tracer) StartSpan(parent *Span, name string) *Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.nextID++
	s := &Span{tr: t, par: parent, id: t.nextID, name: name, start: time.Since(t.t0)}
	if parent != nil {
		s.parent = parent.id
	}
	lane := -1
	if parent != nil && parent.lane < len(t.laneTops) && t.laneTops[parent.lane] == parent {
		lane = parent.lane
	} else {
		for i, top := range t.laneTops {
			if top == nil {
				lane = i
				break
			}
		}
		if lane < 0 {
			lane = len(t.laneTops)
			t.laneTops = append(t.laneTops, nil)
		}
	}
	s.lane = lane
	t.laneTops[lane] = s
	return s
}

// WithInt attaches an integer attribute and returns the span (chainable).
func (s *Span) WithInt(key string, v int64) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: KindInt, Int: v})
	return s
}

// WithStr attaches a string attribute and returns the span (chainable).
func (s *Span) WithStr(key, v string) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: KindStr, Str: v})
	return s
}

// WithBool attaches a boolean attribute and returns the span (chainable).
func (s *Span) WithBool(key string, v bool) *Span {
	if s == nil {
		return nil
	}
	s.attrs = append(s.attrs, Attr{Key: key, Kind: KindBool, Bool: v})
	return s
}

// End closes the span and records it. Ending a span twice records it
// twice; don't. Spans still open when an exporter runs are not exported.
func (s *Span) End() {
	if s == nil {
		return
	}
	t := s.tr
	t.mu.Lock()
	defer t.mu.Unlock()
	end := time.Since(t.t0)
	t.spans = append(t.spans, SpanRecord{
		ID:     s.id,
		Parent: s.parent,
		Name:   s.name,
		Lane:   s.lane,
		Start:  s.start,
		Dur:    end - s.start,
		Attrs:  s.attrs,
	})
	if t.laneTops[s.lane] == s {
		if s.par != nil && s.par.lane == s.lane {
			t.laneTops[s.lane] = s.par
		} else {
			t.laneTops[s.lane] = nil
		}
	}
}

// Counter is a named monotonic (or at least additive) metric. Adds are
// atomic, so one Counter may be shared by every worker of a pool. A nil
// *Counter (from a disabled tracer) ignores Add.
type Counter struct {
	v atomic.Int64
}

// Add increments the counter by d.
func (c *Counter) Add(d int64) {
	if c == nil {
		return
	}
	c.v.Add(d)
}

// Value returns the current total.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Counter returns the named counter, creating it on first use. On a nil
// tracer it returns nil (whose Add is a no-op). Resolve counters once
// outside loops; Add in the loop.
func (t *Tracer) Counter(name string) *Counter {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	c := t.counters[name]
	if c == nil {
		c = &Counter{}
		t.counters[name] = c
	}
	return c
}

// CounterTotals snapshots every counter's total, keyed by name.
func (t *Tracer) CounterTotals() map[string]int64 {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	out := make(map[string]int64, len(t.counters))
	for name, c := range t.counters {
		out[name] = c.Value()
	}
	return out
}

// Histogram records a distribution as count/sum/min/max plus power-of-two
// bucket counts (bucket i holds values in [2^(i-1), 2^i), bucket 0 holds
// <= 0 and 1). Observes take one short mutex hold; a nil *Histogram
// ignores Observe.
type Histogram struct {
	mu      sync.Mutex
	count   int64
	sum     int64
	min     int64
	max     int64
	buckets [32]int64
}

// Observe records one sample.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.mu.Lock()
	defer h.mu.Unlock()
	if h.count == 0 || v < h.min {
		h.min = v
	}
	if h.count == 0 || v > h.max {
		h.max = v
	}
	h.count++
	h.sum += v
	h.buckets[bucketOf(v)]++
}

func bucketOf(v int64) int {
	b := 0
	for v > 1 && b < 31 {
		v >>= 1
		b++
	}
	return b
}

// HistStats is an exported histogram snapshot.
type HistStats struct {
	Count int64   `json:"count"`
	Sum   int64   `json:"sum"`
	Min   int64   `json:"min"`
	Max   int64   `json:"max"`
	Mean  float64 `json:"mean"`
	// Buckets are the power-of-two bucket counts, trimmed of trailing
	// zeros: Buckets[0] counts values <= 1, Buckets[i] counts values in
	// [2^i, 2^(i+1)). The metrics bridge folds them into Prometheus
	// histograms without replaying samples.
	Buckets []int64 `json:"buckets,omitempty"`
}

func (h *Histogram) stats() HistStats {
	h.mu.Lock()
	defer h.mu.Unlock()
	st := HistStats{Count: h.count, Sum: h.sum, Min: h.min, Max: h.max}
	if h.count > 0 {
		st.Mean = float64(h.sum) / float64(h.count)
	}
	top := len(h.buckets)
	for top > 0 && h.buckets[top-1] == 0 {
		top--
	}
	if top > 0 {
		st.Buckets = append([]int64(nil), h.buckets[:top]...)
	}
	return st
}

// Histogram returns the named histogram, creating it on first use. On a
// nil tracer it returns nil (whose Observe is a no-op).
func (t *Tracer) Histogram(name string) *Histogram {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	h := t.hists[name]
	if h == nil {
		h = &Histogram{}
		t.hists[name] = h
	}
	return h
}

// HistogramStats snapshots every histogram, keyed by name.
func (t *Tracer) HistogramStats() map[string]HistStats {
	if t == nil {
		return nil
	}
	t.cmu.Lock()
	defer t.cmu.Unlock()
	out := make(map[string]HistStats, len(t.hists))
	for name, h := range t.hists {
		out[name] = h.stats()
	}
	return out
}

// Spans snapshots the completed spans in end order.
func (t *Tracer) Spans() []SpanRecord {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]SpanRecord, len(t.spans))
	copy(out, t.spans)
	return out
}
