// Package pathfinder implements PF*, the negotiated-congestion baseline
// mapper the paper compares against (its fine-tuned PathFinder variant,
// in the SPR family): an initial placement that picks, node by node in
// topological order, the candidate slot with the minimal routing cost,
// followed by single-node remapping iterations — rip up an ill-mapped
// node (and, when stuck, a blocking neighbour), bump the history cost of
// the contested resources, and re-place — until the mapping is feasible
// or the per-II budget runs out, at which point the II is incremented.
//
// Rewire reuses the initial-placement phase of this package as the
// "initial mapping from conventional approaches" its amendment loop
// starts from.
package pathfinder

import (
	"context"
	"math/rand"
	"sort"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/placer"
	"rewire/internal/route"
	"rewire/internal/stats"
	"rewire/internal/sweep"
	"rewire/internal/trace"
)

// Options tunes the mapper. Zero values select the defaults.
type Options struct {
	sweep.RunOptions
	// RemapsPerII bounds single-node remapping iterations per II
	// (default 40 per DFG node).
	RemapsPerII int
	// CandidateBeam is how many of the estimate-ranked placement
	// candidates get full trial routing per (re)placement. 0 (the
	// default) evaluates every candidate, as the paper describes PF*
	// doing ("PF* evaluates all the placement candidates for each
	// single-node remapping and selects the best one"); Rewire's
	// initial-mapping phase uses a narrow beam instead, since amendment
	// only needs a rough starting point.
	CandidateBeam int
}

func (o Options) withDefaults(n int) Options {
	o.RunOptions = o.RunOptions.WithDefaults()
	if o.RemapsPerII == 0 {
		o.RemapsPerII = 40 * n
	}
	return o
}

// Map runs PF* to completion: II sweeps from MII upward until a valid
// mapping is found or the limits are hit.
func Map(g *dfg.Graph, a *arch.CGRA, opt Options) (*mapping.Mapping, stats.Result) {
	return MapCtx(context.Background(), g, a, opt)
}

// MapCtx is Map with cancellation: ctx aborts the serial II sweep
// (in-flight attempts unwind within one remap iteration) and the run
// reports failure. Wider sweeps go through sweep.Drive with Row.
func MapCtx(ctx context.Context, g *dfg.Graph, a *arch.CGRA, opt Options) (*mapping.Mapping, stats.Result) {
	return sweep.Drive(ctx, g, a, sweep.Solo(Row(opt), 1), opt.RunOptions)
}

// Row is PF*'s row in the backend table, tuned by opt's PF*-specific
// fields; the run options come from the driver.
func Row(opt Options) sweep.Backend {
	return sweep.Backend{Name: "pathfinder", Stat: "PF*", Span: "pf.map",
		Attempt: func(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, run sweep.RunOptions) (*mapping.Mapping, stats.Effort, bool) {
			o := opt // concurrent lanes share the row
			o.RunOptions = run
			return AttemptII(ctx, g, a, ii, seed, root, o)
		}}
}

// AttemptII runs exactly one PF* II attempt under root with a
// driver-derived seed: initial placement followed by the
// rip-up/history negotiation loop until the mapping validates or the
// II's remap/time budgets expire. It returns the mapping (nil on
// failure), the attempt's effort tally (RemapIterations holds this
// attempt's remap count), and whether the II is feasible.
// The outcome is a pure function of (g, a, ii, seed, opt).
func AttemptII(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, opt Options) (*mapping.Mapping, stats.Effort, bool) {
	opt = opt.withDefaults(g.NumNodes())
	tr := opt.Tracer
	var eff stats.Effort
	defer eff.Fill(tr, "pf.remaps", false)
	var out *mapping.Mapping
	rng := rand.New(rand.NewSource(seed))
	iiSpan := tr.StartSpan(root, "ii").WithInt("ii", int64(ii))
	ms := tr.StartSpan(iiSpan, "mrrg_build")
	p := newPerII(g, a, ii, rng, &eff)
	ms.End()
	p.beam = opt.CandidateBeam
	p.instrument(tr, iiSpan)
	p.att = opt.Obs.AttemptStart(ii, 0)
	ok := p.run(ctx, opt)
	eff.RemapIterations = p.remaps
	// The attempt's router retires here: book its work win or lose,
	// before the diagnostic-only failure attribution searches.
	eff.RouterExpansions += p.router.Expansions
	iiSpan.WithBool("ok", ok).WithInt("remaps", int64(p.remaps)).End()
	if ok {
		finalize(p.sess.M)
		out = p.sess.M
	} else {
		// Post-mortem: name the resources the unroutable edges are
		// fighting over (diagnostic-only, nil-safe).
		route.AttributeFailures(p.att, p.sess, p.router)
	}
	p.att.End(ok, ctx.Err() != nil, p.remaps, p.sess)
	p.sess.Close()
	return out, eff, ok
}

// finalize validates the result defensively; an invalid "success" is a
// mapper bug and must surface immediately.
func finalize(m *mapping.Mapping) {
	if err := mapping.Validate(m); err != nil {
		panic("pathfinder: produced invalid mapping: " + err.Error())
	}
}

// BuildInitialTraced runs only the initial-placement phase at the
// mapping's II and returns the (typically partial/ill) session and the
// router. Rewire amends this mapping, so a narrow candidate beam
// suffices: amendment only needs a rough starting point, not PF*'s
// exhaustive per-node candidate evaluation. The phase is recorded under
// parent: an initial_mapping span wrapping mrrg_build and
// initial_placement child spans. A nil tracer is the untraced path; a
// cancelled ctx stops the placement early and returns the partial
// session.
func BuildInitialTraced(ctx context.Context, m *mapping.Mapping, seed int64, eff *stats.Effort, tr *trace.Tracer, parent *trace.Span) (*mapping.Session, *route.Router) {
	rng := rand.New(rand.NewSource(seed))
	sp := tr.StartSpan(parent, "initial_mapping").WithInt("seed", seed)
	ms := tr.StartSpan(sp, "mrrg_build")
	p := newPerII(m.DFG, m.Arch, m.II, rng, eff)
	ms.End()
	p.beam = 8
	p.instrument(tr, sp)
	p.pace = sweep.NewPacer(ctx, time.Now().Add(time.Minute), paceEvery)
	ps := tr.StartSpan(sp, "initial_placement")
	p.initialPlacement()
	ps.End()
	sp.End()
	return p.sess, p.router
}

// paceEvery is how many hot-loop iterations (placement candidates,
// placed nodes) pass between real deadline/cancellation checks; see
// sweep.Pacer. Coarse enough that time.Now vanishes from the candidate
// loop's profile, fine enough that a cancelled speculative attempt
// unwinds within one remap iteration.
const paceEvery = 16

// perII is the mapping state for one II attempt.
type perII struct {
	g      *dfg.Graph
	sess   *mapping.Session
	router *route.Router
	rng    *rand.Rand
	eff    *stats.Effort // the attempt's tally
	hist   []float64     // per MRRG node contention history
	slack  int
	asap   []int
	remaps int
	beam   int          // candidates fully routed per placement; 0 = all
	pace   *sweep.Pacer // amortised deadline + cancellation polling

	// slots and cands are rankedCandidates' buffers, reused across
	// placements (placeNode is never re-entered while cands is live).
	slots []mapping.Placement
	cands []candidate

	tr   *trace.Tracer
	span *trace.Span // parent for this II's phase spans

	// att feeds the attempt's post-mortem record and progress stream;
	// nil (free no-ops) when both are disabled.
	att *diag.IIAttempt
}

// instrument attaches the tracer to this II's state. A nil tracer
// leaves everything nil — the untraced fast path.
func (p *perII) instrument(tr *trace.Tracer, span *trace.Span) {
	p.tr, p.span = tr, span
	p.router.Instrument(tr)
}

func newPerII(g *dfg.Graph, a *arch.CGRA, ii int, rng *rand.Rand, eff *stats.Effort) *perII {
	m := mapping.New(g, a, ii)
	sess := mapping.NewSession(m)
	asap, err := g.ASAP(ii)
	if err != nil {
		// II below RecMII: caller starts at MII, so this is unreachable,
		// but fall back to zeros to stay total.
		asap = make([]int, g.NumNodes())
	}
	return &perII{
		g:      g,
		sess:   sess,
		router: route.ForSession(sess),
		rng:    rng,
		eff:    eff,
		hist:   make([]float64, sess.Graph.NumNodes()),
		slack:  placer.DefaultSlack(ii),
		asap:   asap,
	}
}

// cost prices a resource for routing: unit base plus accumulated
// contention history, with own-net reuse nearly free (PathFinder's
// b(n) + h(n) with strict present-sharing).
func (p *perII) cost(net mrrg.Net) route.CostFn {
	st := p.sess.State
	return func(n mrrg.Node, phase int) (float64, bool) {
		ok, shared := st.Admit(n, net, phase)
		if !ok {
			return 0, false
		}
		if shared {
			return 0.05, true
		}
		return 1 + p.hist[n], true
	}
}

func (p *perII) run(ctx context.Context, opt Options) bool {
	p.pace = sweep.NewPacer(ctx, time.Now().Add(opt.TimePerII), paceEvery)
	is := p.tr.StartSpan(p.span, "initial_placement")
	p.initialPlacement()
	is.End()
	rs := p.tr.StartSpan(p.span, "remap_loop")
	defer func() { rs.WithInt("remaps", int64(p.remaps)).End() }()
	for p.remaps < opt.RemapsPerII && !p.pace.ExpiredNow() {
		ill := p.sess.IllMapped()
		if len(ill) == 0 {
			return true
		}
		v := ill[p.rng.Intn(len(ill))]
		p.remaps++
		// Progress stays coarse: one round event per 32 remap iterations
		// keeps a long negotiation visible without flooding the bus.
		p.att.Round(p.remaps, len(ill), p.remaps&31 == 0)
		p.ripWithHistory(v)
		if !p.placeNode(v, p.beam) {
			// Could not even place: evict a random placed node to open
			// room; it becomes ill and is remapped on a later iteration.
			p.evictRandom(v)
		}
	}
	return len(p.sess.IllMapped()) == 0
}

// initialPlacement maps nodes in topological order, each at its minimal
// routing-cost candidate; nodes whose edges cannot all be routed are
// still placed best-effort (leaving ill routes), matching the paper's
// "initial mapping" that Rewire amends. Exhaustive candidate evaluation
// on large fabrics can be slow, so the per-II pacer (deadline +
// cancellation) applies here too.
func (p *perII) initialPlacement() {
	order, err := p.g.TopoOrder()
	if err != nil {
		return
	}
	for _, v := range order {
		if p.pace.ExpiredNow() {
			return
		}
		p.placeNode(v, p.beam)
	}
}

// candidate is a slot plus its cheap cost estimate.
type candidate struct {
	pl  mapping.Placement
	est float64
}

// placeNode places v at the best candidate it can fully route; if none
// routes completely it commits the best partial candidate. Returns false
// if no candidate slot existed at all.
//
// With beam == 0 every candidate that can still win is trial-routed and
// the one with the minimal total route cost wins (the paper's PF*); with
// beam > 0 only the top estimate-ranked candidates are routed and the
// first fully routable one wins (the fast variant used for initial
// mappings).
//
// A fully routed candidate's cost is fixed by its placement (see
// fullCost), so once some candidate has routed fully, a candidate whose
// fullCost is not below it cannot win and is not trial-routed. It still
// counts as tried and still polls the pacer, so the committed placement
// and every counter except router expansions match routing it.
func (p *perII) placeNode(v int, beam int) bool {
	cands := p.rankedCandidates(v)
	if len(cands) == 0 {
		return false
	}
	exhaustive := beam <= 0
	if exhaustive || beam > len(cands) {
		beam = len(cands)
	}
	type outcome struct {
		pl     mapping.Placement
		routed int
		cost   int
		ok     bool
	}
	best := outcome{routed: -1}
	bestFull := outcome{cost: int(^uint(0) >> 1), ok: false}
	for _, c := range cands[:beam] {
		// Amortised deadline/cancellation poll: the exhaustive PF*
		// candidate loop trial-routes every slot, so this is where a
		// per-candidate time.Now would cost and where a cancelled
		// speculative attempt bails. Committing the best candidate found
		// so far keeps the early exit a truncation, not a corruption.
		if p.pace.Expired() {
			break
		}
		p.eff.PlacementsTried++
		if bestFull.ok && p.fullCost(v, c.pl) >= bestFull.cost {
			continue
		}
		if err := p.sess.PlaceNode(v, c.pl.PE, c.pl.Time); err != nil {
			continue
		}
		routed, total := p.routeIncident(v)
		if routed == total {
			if !exhaustive {
				return true // fast variant: first full route wins
			}
			cost := p.routeCost(v)
			if cost < bestFull.cost {
				bestFull = outcome{pl: c.pl, cost: cost, ok: true}
			}
		} else if routed > best.routed {
			best = outcome{pl: c.pl, routed: routed}
		}
		p.ripRoutesOnly(v)
		p.sess.UnplaceNode(v)
	}
	commit := func(pl mapping.Placement) bool {
		if err := p.sess.PlaceNode(v, pl.PE, pl.Time); err != nil {
			return false
		}
		p.routeIncident(v)
		return true
	}
	if bestFull.ok {
		return commit(bestFull.pl)
	}
	if best.routed < 0 {
		return false
	}
	return commit(best.pl)
}

// routeCost totals the committed route lengths of v's incident edges
// (plus one per edge), counting a self edge once per edge list.
func (p *perII) routeCost(v int) int {
	c := 0
	for _, eid := range append(append([]int{}, p.g.InEdges(v)...), p.g.OutEdges(v)...) {
		if p.sess.M.Routed(eid) {
			c += len(p.sess.M.Routes[eid]) + 1
		}
	}
	return c
}

// fullCost is routeCost(v) as it would stand with v at pl and every
// incident edge to a placed endpoint routed. A route of latency lat
// holds exactly lat-1 resources (Session.CheckPath), so each routed
// edge adds its latency, which the placements alone fix; a self edge
// appears in both edge lists, as in routeCost.
func (p *perII) fullCost(v int, pl mapping.Placement) int {
	g, m := p.g, p.sess.M
	c := 0
	for _, eid := range g.InEdges(v) {
		e := g.Edges[eid]
		from := pl.Time
		if e.From != v {
			if !m.Placed(e.From) {
				continue
			}
			from = m.Place[e.From].Time
		}
		c += pl.Time - from + e.Dist*m.II
	}
	for _, eid := range g.OutEdges(v) {
		e := g.Edges[eid]
		to := pl.Time
		if e.To != v {
			if !m.Placed(e.To) {
				continue
			}
			to = m.Place[e.To].Time
		}
		c += to - pl.Time + e.Dist*m.II
	}
	return c
}

// rankedCandidates enumerates v's feasible slots and sorts them by a
// cheap estimate: total edge latency slack, Manhattan-distance
// infeasibility penalties, FU history, and a small random jitter for
// tie-breaking diversity.
func (p *perII) rankedCandidates(v int) []candidate {
	w := placer.TimeWindow(p.sess, v, p.asap[v], p.slack)
	if w.Empty() {
		return nil
	}
	p.slots = placer.Candidates(p.sess, v, w, p.slots[:0])
	cands := p.cands[:0]
	for _, pl := range p.slots {
		est, feasible := p.estimate(v, pl)
		if !feasible {
			continue
		}
		cands = append(cands, candidate{pl: pl, est: est + p.rng.Float64()*0.1})
	}
	sort.Slice(cands, func(i, j int) bool { return cands[i].est < cands[j].est })
	p.cands = cands
	return cands
}

// estimate prices a slot without routing: for each edge to a placed
// neighbour, latency must be >= 1 and >= the oracle's exact minimum
// routing latency (strictly necessary conditions, exact on torus wrap
// links too); the cost is the total latency plus FU history.
func (p *perII) estimate(v int, pl mapping.Placement) (float64, bool) {
	g := p.g
	ii := p.sess.M.II
	cost := p.hist[p.sess.Graph.FU(pl.PE, pl.Time)]
	for _, eid := range g.InEdges(v) {
		e := g.Edges[eid]
		if e.From == v || !p.sess.M.Placed(e.From) {
			continue
		}
		from := p.sess.M.Place[e.From]
		lat := pl.Time - from.Time + e.Dist*ii
		if lat < 1 || lat < p.router.NeedCycles(from.PE, pl.PE) {
			return 0, false
		}
		cost += float64(lat)
	}
	for _, eid := range g.OutEdges(v) {
		e := g.Edges[eid]
		if e.To == v || !p.sess.M.Placed(e.To) {
			continue
		}
		to := p.sess.M.Place[e.To]
		lat := to.Time - pl.Time + e.Dist*ii
		if lat < 1 || lat < p.router.NeedCycles(pl.PE, to.PE) {
			return 0, false
		}
		cost += float64(lat)
	}
	// Self recurrences need latency dist*II >= 1, always true.
	return cost, true
}

// routeIncident strictly routes v's edges whose other endpoint is placed,
// returning how many of them are now routed and the total needing routes.
func (p *perII) routeIncident(v int) (routed, total int) {
	g := p.g
	try := func(eid int) {
		e := g.Edges[eid]
		other := e.From + e.To - v
		if e.From == v && e.To == v {
			other = v
		}
		if !p.sess.M.Placed(other) {
			return
		}
		total++
		if p.sess.M.Routed(eid) {
			routed++
			return
		}
		if p.routeEdge(eid) {
			routed++
		}
	}
	for _, eid := range g.InEdges(v) {
		try(eid)
	}
	for _, eid := range g.OutEdges(v) {
		if e := g.Edges[eid]; e.From == v && e.To == v {
			continue // already handled from InEdges
		}
		try(eid)
	}
	return routed, total
}

func (p *perII) routeEdge(eid int) bool {
	e := p.g.Edges[eid]
	m := p.sess.M
	lat := m.Latency(eid)
	if lat < 1 {
		return false
	}
	src := p.sess.Graph.FU(m.Place[e.From].PE, m.Place[e.From].Time)
	dst := p.sess.Graph.FU(m.Place[e.To].PE, m.Place[e.To].Time)
	// StrictFloor fits the negotiated cost too: own-net sharing costs
	// 0.05 as in StrictCost, and every other step at least the unit base
	// (history is non-negative).
	path, ok := p.router.FindPath(src, dst, lat, p.cost(mrrg.Net(e.From)), route.StrictFloor(p.sess, e.From))
	if !ok {
		return false
	}
	return p.sess.RouteEdge(eid, path) == nil
}

// ripRoutesOnly unroutes v's incident edges without unplacing it.
func (p *perII) ripRoutesOnly(v int) {
	for _, eid := range p.g.InEdges(v) {
		p.sess.UnrouteEdge(eid)
	}
	for _, eid := range p.g.OutEdges(v) {
		p.sess.UnrouteEdge(eid)
	}
}

// ripWithHistory rips v and charges history on every resource its routes
// held, so future routes negotiate away from contested regions.
func (p *perII) ripWithHistory(v int) {
	for _, eid := range append(append([]int{}, p.g.InEdges(v)...), p.g.OutEdges(v)...) {
		if p.sess.M.Routed(eid) {
			net := mrrg.Net(p.g.Edges[eid].From)
			for _, n := range p.sess.M.Routes[eid] {
				p.hist[n] += 0.5
				p.att.Contend(n, net)
			}
		}
	}
	if p.sess.M.Placed(v) {
		pl := p.sess.M.Place[v]
		fu := p.sess.Graph.FU(pl.PE, pl.Time)
		p.hist[fu] += 1
		p.att.Contend(fu, mrrg.Net(v))
	}
	p.sess.RipNode(v)
}

// evictRandom rips one random placed node (other than v) to open space.
func (p *perII) evictRandom(v int) {
	var placed []int
	for u := range p.sess.M.Place {
		if u != v && p.sess.M.Placed(u) {
			placed = append(placed, u)
		}
	}
	if len(placed) == 0 {
		return
	}
	u := placed[p.rng.Intn(len(placed))]
	p.ripWithHistory(u)
}
