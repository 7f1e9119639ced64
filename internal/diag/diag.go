// Package diag is the mapping post-mortem layer: it turns a failed (or
// successful) mapping run into an explanation. The mappers' negotiation
// loops — PF*'s rip-up/history bumps, Rewire's cluster amendment, SA's
// periodic full-routing attempts — feed per-resource contention into a
// Collector; on completion the Collector emits a structured Report:
// the per-II attempt timeline, the top-K contested PEs/links together
// with the DFG operations that fought over them, the unroutable-edge
// list, and the amendment-round convergence series.
//
// The mappers reach the Collector, the progress Bus and the run logger
// through one run-scoped Observer (observer.go). Like internal/trace
// and internal/obs, the whole package is nil-safe and free when off: a
// nil *Observer (and the nil *IIAttempt handles it hands out) makes
// every boundary call a single pointer check with zero allocations, so
// instrumented mapper code needs no guards. A live Collector is safe
// for the speculative II sweep: attempts may start from concurrent
// goroutines; each IIAttempt handle is then owned by its attempt
// goroutine alone.
package diag

import (
	"slices"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

// SchemaID identifies the Report JSON schema.
const SchemaID = "rewire-report-v1"

// Caps keep a pathological run's diagnostics bounded: the convergence
// series stores at most maxConvergence points per attempt (later rounds
// still count via Rounds), each contested resource remembers at most
// maxContenders distinct nets, and End records at most
// maxUnroutable unroutable edges per attempt.
const (
	maxConvergence = 512
	maxContenders  = 8
	maxUnroutable  = 16
	// DefaultTopK is how many contested resources a Report keeps when
	// the caller does not choose.
	DefaultTopK = 10
)

// Collector accumulates diagnostics across one mapping run. Create one
// with NewCollector and hand it to NewObserver; nil disables collection
// everywhere.
type Collector struct {
	mu       sync.Mutex
	kernel   string
	archName string
	rows     int
	cols     int
	mapper   string
	mii      int
	g        *dfg.Graph
	attempts []*IIAttempt
	success  bool
	cached   bool
	ii       int
	winner   string
}

// NewCollector returns an enabled collector.
func NewCollector() *Collector { return &Collector{} }

// Enabled reports whether diagnostics are being collected.
func (c *Collector) Enabled() bool { return c != nil }

// begin records the run's identity. Safe on nil.
func (c *Collector) begin(g *dfg.Graph, a *arch.CGRA, mapper string, mii int) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.kernel, c.archName, c.mapper, c.mii = g.Name, a.Name, mapper, mii
	c.rows, c.cols = a.Rows, a.Cols
	c.g = g
	c.mu.Unlock()
}

// commit records the run's final outcome: success, the committed II,
// the portfolio backend whose lane produced the mapping (empty for a
// single mapper) and whether the result cache served the run. Safe on
// nil.
func (c *Collector) commit(success bool, ii int, winner string, cached bool) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.success, c.ii, c.winner, c.cached = success, ii, winner, cached
	c.mu.Unlock()
}

// add registers an attempt in the timeline. Only the registration takes
// the collector lock, so concurrent sweep attempts never contend while
// recording. Safe on nil.
func (c *Collector) add(a *IIAttempt) {
	if c == nil {
		return
	}
	c.mu.Lock()
	c.attempts = append(c.attempts, a)
	c.mu.Unlock()
}

// resStat is one contested resource's running tally.
type resStat struct {
	times      int
	contenders []mrrg.Net // distinct, capped at maxContenders
}

// IIAttempt is one attempt's observer handle (see
// Observer.AttemptStart): its post-mortem record when a collector is
// live, and its progress-event source when a bus is. A nil handle is
// the disabled one; all methods are nil-safe no-ops, so mapper code
// calls them unconditionally. The handle is owned by its attempt's
// goroutine.
type IIAttempt struct {
	ii      int
	attempt int
	lane    string
	started time.Time
	c       *Collector // nil when only the bus is live
	bus     *Bus

	rounds      int
	convergence []int
	contested   map[mrrg.Node]*resStat

	done    bool
	outcome string
	durMS   float64
	// Resolved at End, while the session is still alive.
	resources  []ResourceReport
	unroutable []EdgeReport
}

// Round records one negotiation round (an amendment round, a PF* remap
// iteration, an SA routing attempt) and the ill-mapped node count after
// it — the convergence series — and, when publish is set, publishes it
// as a round event numbered round.
func (a *IIAttempt) Round(round, ill int, publish bool) {
	if a == nil {
		return
	}
	if a.c != nil {
		a.rounds++
		if len(a.convergence) < maxConvergence {
			a.convergence = append(a.convergence, ill)
		}
	}
	if publish {
		a.bus.Publish(Event{Type: "round", II: a.ii, Round: round, Ill: ill})
	}
}

// Diagnosing reports whether the attempt feeds a post-mortem collector:
// diagnostic-only work (failure attribution, ill-node scans) runs only
// then.
func (a *IIAttempt) Diagnosing() bool { return a != nil && a.c != nil }

// Contend charges one unit of contention on resource n by net: the
// resource was ripped, history-bumped, or found blocking a route.
func (a *IIAttempt) Contend(n mrrg.Node, net mrrg.Net) {
	if !a.Diagnosing() {
		return
	}
	if a.contested == nil {
		a.contested = make(map[mrrg.Node]*resStat)
	}
	st := a.contested[n]
	if st == nil {
		st = &resStat{}
		a.contested[n] = st
	}
	st.times++
	for _, c := range st.contenders {
		if c == net {
			return
		}
	}
	if len(st.contenders) < maxContenders {
		st.contenders = append(st.contenders, net)
	}
}

// End closes the attempt. On the collector it resolves every contested
// resource's label, kind, PE and final occupant against the still-live
// session, records the unroutable edges (placed endpoints, no route) of
// a failure, and labels an attempt torn down by the sweep (a lower II
// succeeded) as cancelled. On the bus it publishes attempt_end; rounds,
// when non-zero, is the round count the event carries. Call it before
// sess.Close(). Safe on nil.
func (a *IIAttempt) End(ok, cancelled bool, rounds int, sess *mapping.Session) {
	if a == nil {
		return
	}
	if a.c != nil {
		a.finish(ok, sess)
		if cancelled && a.outcome == "failed" {
			a.outcome = "cancelled"
		}
	}
	a.bus.Publish(Event{Type: "attempt_end", II: a.ii, Attempt: a.attempt, Round: rounds,
		Outcome: Outcome(ok, cancelled), Lane: a.lane})
}

func (a *IIAttempt) finish(ok bool, sess *mapping.Session) {
	a.done = true
	a.durMS = float64(time.Since(a.started).Microseconds()) / 1e3
	a.outcome = "failed"
	if ok {
		a.outcome = "mapped"
	}
	if sess == nil {
		return
	}
	g := a.c.dfg()
	a.resources = make([]ResourceReport, 0, len(a.contested))
	for n, st := range a.contested {
		rr := ResourceReport{
			Resource:       sess.Graph.String(n),
			Kind:           sess.Graph.Kind(n).String(),
			PE:             sess.Graph.PE(n),
			Time:           sess.Graph.Time(n),
			TimesContested: st.times,
		}
		for _, net := range st.contenders {
			rr.Contenders = append(rr.Contenders, netName(g, net))
		}
		sort.Strings(rr.Contenders)
		if occ, _ := sess.State.Occupant(n); occ != mrrg.NoNet {
			rr.FinalOccupant = netName(g, occ)
		}
		a.resources = append(a.resources, rr)
	}
	sortResources(a.resources)
	if !ok {
		m := sess.M
		for e := range m.Routes {
			if m.Routed(e) {
				continue
			}
			ed := m.DFG.Edges[e]
			if !m.Placed(ed.From) || !m.Placed(ed.To) {
				continue
			}
			if len(a.unroutable) >= maxUnroutable {
				break
			}
			a.unroutable = append(a.unroutable, EdgeReport{
				Edge: e, II: a.ii,
				From: m.DFG.Nodes[ed.From].Name, To: m.DFG.Nodes[ed.To].Name,
				Latency: m.Latency(e),
			})
		}
		sort.Slice(a.unroutable, func(i, j int) bool { return a.unroutable[i].Edge < a.unroutable[j].Edge })
	}
}

func (c *Collector) dfg() *dfg.Graph {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.g
}

func netName(g *dfg.Graph, net mrrg.Net) string {
	if g == nil || int(net) < 0 || int(net) >= len(g.Nodes) {
		return ""
	}
	return g.Nodes[int(net)].Name
}

// Report is the post-mortem document, JSON-stable. See
// docs/OBSERVABILITY.md for the schema.
type Report struct {
	Schema  string `json:"schema"`
	Kernel  string `json:"kernel"`
	Arch    string `json:"arch"`
	Rows    int    `json:"rows"`
	Cols    int    `json:"cols"`
	Mapper  string `json:"mapper"`
	Success bool   `json:"success"`
	Cached  bool   `json:"cached,omitempty"`
	II      int    `json:"ii,omitempty"`
	MII     int    `json:"mii"`
	// WinnerBackend names the portfolio backend whose lane produced the
	// committed mapping; empty for single-mapper runs.
	WinnerBackend string `json:"winner_backend,omitempty"`

	// Attempts is the per-II timeline in (II, attempt) order.
	Attempts []AttemptReport `json:"attempts"`
	// Contested is the top-K contested resources across all attempts,
	// most contested first.
	Contested []ResourceReport `json:"contested"`
	// Unroutable lists edges that never found a route on failed
	// attempts (deduplicated across attempts, capped).
	Unroutable []EdgeReport `json:"unroutable,omitempty"`
}

// AttemptReport is one II attempt in the timeline.
type AttemptReport struct {
	II      int    `json:"ii"`
	Attempt int    `json:"attempt"`
	Outcome string `json:"outcome"` // mapped, failed, cancelled, running
	// Lane is the portfolio backend this attempt ran under; empty for
	// single-mapper runs.
	Lane  string  `json:"lane,omitempty"`
	DurMS float64 `json:"dur_ms"`
	// Rounds counts negotiation rounds; Convergence is the ill-mapped
	// node count after each round (capped, earliest rounds first).
	Rounds      int   `json:"rounds"`
	Convergence []int `json:"convergence,omitempty"`
	// Contested is how many distinct resources this attempt contested.
	Contested int `json:"contested"`
}

// ResourceReport is one contested fabric resource.
type ResourceReport struct {
	Resource       string   `json:"resource"` // e.g. "link(3,S)@t2"
	Kind           string   `json:"kind"`     // fu, link, reg, bank
	PE             int      `json:"pe"`
	Time           int      `json:"time"`
	TimesContested int      `json:"times_contested"`
	Contenders     []string `json:"contenders,omitempty"` // DFG op names
	FinalOccupant  string   `json:"final_occupant,omitempty"`
}

// EdgeReport is one DFG edge that never routed.
type EdgeReport struct {
	Edge    int    `json:"edge"`
	From    string `json:"from"`
	To      string `json:"to"`
	II      int    `json:"ii"`
	Latency int    `json:"latency"`
}

// Report builds the post-mortem with the default top-K. Safe on nil
// (returns nil).
func (c *Collector) Report() *Report { return c.ReportTopK(DefaultTopK) }

// ReportTopK builds the post-mortem keeping the k most contested
// resources. Safe on nil.
func (c *Collector) ReportTopK(k int) *Report {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	r := &Report{
		Schema: SchemaID, Kernel: c.kernel, Arch: c.archName,
		Rows: c.rows, Cols: c.cols,
		Mapper: c.mapper, Success: c.success, Cached: c.cached,
		II: c.ii, MII: c.mii, WinnerBackend: c.winner,
		// Empty-but-present arrays: JSON consumers get [] rather than
		// null (a cached hit legitimately has zero attempts).
		Attempts:  []AttemptReport{},
		Contested: []ResourceReport{},
	}
	attempts := append([]*IIAttempt(nil), c.attempts...)
	sort.SliceStable(attempts, func(i, j int) bool {
		if attempts[i].ii != attempts[j].ii {
			return attempts[i].ii < attempts[j].ii
		}
		if attempts[i].lane != attempts[j].lane {
			return attempts[i].lane < attempts[j].lane
		}
		return attempts[i].attempt < attempts[j].attempt
	})
	merged := map[string]*ResourceReport{}
	seenEdge := map[int]bool{}
	for _, a := range attempts {
		ar := AttemptReport{
			II: a.ii, Attempt: a.attempt, Outcome: a.outcome, Lane: a.lane, DurMS: a.durMS,
			Rounds: a.rounds, Convergence: a.convergence, Contested: len(a.contested),
		}
		if !a.done {
			ar.Outcome = "running"
		}
		r.Attempts = append(r.Attempts, ar)
		for i := range a.resources {
			rr := &a.resources[i]
			m := merged[rr.Resource]
			if m == nil {
				cp := *rr
				cp.Contenders = append([]string(nil), rr.Contenders...)
				merged[rr.Resource] = &cp
				continue
			}
			m.TimesContested += rr.TimesContested
			// Later attempts see fresher occupancy; keep the last one.
			if rr.FinalOccupant != "" {
				m.FinalOccupant = rr.FinalOccupant
			}
			for _, cd := range rr.Contenders {
				if !slices.Contains(m.Contenders, cd) && len(m.Contenders) < maxContenders {
					m.Contenders = append(m.Contenders, cd)
				}
			}
		}
		for _, e := range a.unroutable {
			if !seenEdge[e.Edge] && len(r.Unroutable) < maxUnroutable {
				seenEdge[e.Edge] = true
				r.Unroutable = append(r.Unroutable, e)
			}
		}
	}
	for _, m := range merged {
		sort.Strings(m.Contenders)
		r.Contested = append(r.Contested, *m)
	}
	sortResources(r.Contested)
	if k > 0 && len(r.Contested) > k {
		r.Contested = r.Contested[:k]
	}
	sort.Slice(r.Unroutable, func(i, j int) bool { return r.Unroutable[i].Edge < r.Unroutable[j].Edge })
	return r
}

// Summary is the top-line failure attribution embedded in error bodies
// so async clients get the "why" without a second round-trip.
type Summary struct {
	Outcome      string   `json:"outcome"` // mapped or failed
	IIsAttempted []int    `json:"iis_attempted,omitempty"`
	TopContested []string `json:"top_contested,omitempty"` // "resource (N× by a, b)"
	Unroutable   int      `json:"unroutable_edges,omitempty"`
}

// Summary condenses a report to its top line. Safe on nil.
func (r *Report) Summary() *Summary {
	if r == nil {
		return nil
	}
	s := &Summary{Outcome: "failed", Unroutable: len(r.Unroutable)}
	if r.Success {
		s.Outcome = "mapped"
	}
	seen := map[int]bool{}
	for _, a := range r.Attempts {
		if !seen[a.II] {
			seen[a.II] = true
			s.IIsAttempted = append(s.IIsAttempted, a.II)
		}
	}
	sort.Ints(s.IIsAttempted)
	for i, rr := range r.Contested {
		if i == 3 {
			break
		}
		line := rr.Resource + " (" + strconv.Itoa(rr.TimesContested) + "x"
		if len(rr.Contenders) > 0 {
			line += " by " + strings.Join(rr.Contenders[:min(len(rr.Contenders), 4)], ", ")
		}
		line += ")"
		s.TopContested = append(s.TopContested, line)
	}
	return s
}

func sortResources(rs []ResourceReport) {
	sort.Slice(rs, func(i, j int) bool {
		if rs[i].TimesContested != rs[j].TimesContested {
			return rs[i].TimesContested > rs[j].TimesContested
		}
		return rs[i].Resource < rs[j].Resource
	})
}
