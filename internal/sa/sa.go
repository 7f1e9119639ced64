// Package sa implements the simulated-annealing baseline mapper the paper
// compares against (as used in CGRA-ME-, Morpher- and DSAGen-style
// flows). It anneals over placements (random single-node moves and pair
// swaps with Metropolis acceptance, VPR-style) against a smooth
// routability estimate, periodically attempting a full conflict-free
// routing of the current placement; it succeeds when a routing attempt
// completes, and gives up on an II after the paper's stopping rule — no
// cost improvement for a patience window — exhausts its restarts.
//
// Unlike PF*, SA picks one random candidate per move instead of
// evaluating all candidates — the paper attributes SA's much larger
// remapping-iteration counts (Table I) exactly to this.
package sa

import (
	"context"
	"math"
	"math/rand"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/mapping"
	"rewire/internal/placer"
	"rewire/internal/route"
	"rewire/internal/stats"
	"rewire/internal/sweep"
	"rewire/internal/trace"
)

// Options tunes the annealer. Zero values select the defaults.
type Options struct {
	sweep.RunOptions
	// Patience is the non-improving move budget per annealing round
	// (default 100, the paper's stopping rule).
	Patience int
	// InitTemp and Cooling control the annealing schedule (defaults 20
	// and 0.99 per move).
	InitTemp float64
	Cooling  float64
	// Restarts is how many annealing rounds run per II before giving up
	// (default 6); each draws a fresh random initial placement.
	Restarts int
	// RouteEvery is how often (in moves) a full routing attempt is made
	// when the placement estimate looks feasible (default 25).
	RouteEvery int
}

func (o Options) withDefaults() Options {
	o.RunOptions = o.RunOptions.WithDefaults()
	if o.Patience == 0 {
		o.Patience = 100
	}
	if o.InitTemp == 0 {
		o.InitTemp = 20
	}
	if o.Cooling == 0 {
		o.Cooling = 0.99
	}
	if o.Restarts == 0 {
		o.Restarts = 6
	}
	if o.RouteEvery == 0 {
		o.RouteEvery = 25
	}
	return o
}

// Map runs the annealer, sweeping II from MII upward.
func Map(g *dfg.Graph, a *arch.CGRA, opt Options) (*mapping.Mapping, stats.Result) {
	return MapCtx(context.Background(), g, a, opt)
}

// MapCtx is Map with cancellation: ctx aborts the serial II sweep
// (in-flight attempts unwind within one anneal check interval) and the
// run reports failure. Wider sweeps go through sweep.Drive with Row.
func MapCtx(ctx context.Context, g *dfg.Graph, a *arch.CGRA, opt Options) (*mapping.Mapping, stats.Result) {
	return sweep.Drive(ctx, g, a, sweep.Solo(Row(opt), 1), opt.RunOptions)
}

// Row is SA's row in the backend table, tuned by opt's SA-specific
// fields; the run options come from the driver.
func Row(opt Options) sweep.Backend {
	return sweep.Backend{Name: "sa", Stat: "SA", Span: "sa.map",
		Attempt: func(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, run sweep.RunOptions) (*mapping.Mapping, stats.Effort, bool) {
			o := opt // concurrent lanes share the row
			o.RunOptions = run
			return AttemptII(ctx, g, a, ii, seed, root, o)
		}}
}

// paceEvery is how many anneal moves pass between real deadline and
// cancellation checks; see sweep.Pacer. The anneal loop used to call
// time.Now() per move, which is measurable at millions of moves per II.
const paceEvery = 32

// AttemptII runs exactly one SA II attempt under root with a
// driver-derived seed: up to Restarts annealing rounds, each from a
// fresh random initial placement, until one validates or the II's time
// budget expires. It returns the mapping (nil on failure), the
// attempt's effort tally (RemapIterations holds this attempt's move
// count), and whether the II is feasible. The outcome is a pure
// function of (g, a, ii, seed, opt).
func AttemptII(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, opt Options) (*mapping.Mapping, stats.Effort, bool) {
	opt = opt.withDefaults()
	tr := opt.Tracer
	var eff stats.Effort
	defer eff.Fill(tr, "sa.moves", false)
	// One rng per II attempt, shared by its restarts in sequence:
	// the attempt's random stream depends only on the attempt seed.
	rng := rand.New(rand.NewSource(seed))
	pace := sweep.NewPacer(ctx, time.Now().Add(opt.TimePerII), paceEvery)
	iiSpan := tr.StartSpan(root, "ii").WithInt("ii", int64(ii))
	for restart := 0; restart < opt.Restarts && !pace.ExpiredNow(); restart++ {
		rSpan := tr.StartSpan(iiSpan, "anneal").WithInt("restart", int64(restart))
		ms := tr.StartSpan(rSpan, "mrrg_build")
		an := newAnnealer(g, a, ii, rng, &eff)
		ms.End()
		an.tr, an.span = tr, rSpan
		an.att = opt.Obs.AttemptStart(ii, restart)
		an.router.Instrument(tr)
		ok := an.run(opt, pace)
		eff.RemapIterations += an.moves
		// Each restart's router retires here: book its work win or
		// lose so RouterExpansions covers the whole search, and before
		// the diagnostic-only failure attribution searches, so the
		// tally does not depend on whether a collector is attached.
		eff.RouterExpansions += an.router.Expansions
		if !ok {
			an.attributeFailure()
			an.clearRoutes()
		}
		rSpan.WithBool("ok", ok).WithInt("moves", int64(an.moves)).End()
		an.att.End(ok, ctx.Err() != nil, an.moves, an.sess)
		if !ok {
			an.sess.Close()
			continue
		}
		if err := mapping.Validate(an.sess.M); err != nil {
			panic("sa: produced invalid mapping: " + err.Error())
		}
		iiSpan.WithBool("ok", true).End()
		out := an.sess.M
		an.sess.Close()
		return out, eff, true
	}
	iiSpan.WithBool("ok", false).End()
	return nil, eff, false
}

type annealer struct {
	g      *dfg.Graph
	sess   *mapping.Session
	router *route.Router
	rng    *rand.Rand
	eff    *stats.Effort // the attempt's tally
	asap   []int
	slack  int
	moves  int
	cands  []mapping.Placement // placer.Candidates buffer, reused per draw

	tr   *trace.Tracer
	span *trace.Span // this restart's anneal span

	// att feeds the restart's post-mortem record and progress stream;
	// nil (free no-ops) when both are disabled.
	att *diag.IIAttempt
}

func newAnnealer(g *dfg.Graph, a *arch.CGRA, ii int, rng *rand.Rand, eff *stats.Effort) *annealer {
	sess := mapping.NewSession(mapping.New(g, a, ii))
	asap, err := g.ASAP(ii)
	if err != nil {
		asap = make([]int, g.NumNodes())
	}
	return &annealer{
		g:      g,
		sess:   sess,
		router: route.ForSession(sess),
		rng:    rng,
		eff:    eff,
		asap:   asap,
		slack:  placer.DefaultSlack(ii),
	}
}

func (an *annealer) run(opt Options, pace *sweep.Pacer) bool {
	an.initialRandom()
	cost := an.totalCost()
	best := cost
	sinceImprove := 0
	temp := opt.InitTemp

	for sinceImprove < opt.Patience && !pace.Expired() {
		an.moves++
		delta, revert := an.move()
		if delta <= 0 || an.rng.Float64() < math.Exp(-float64(delta)/temp) {
			cost += delta
		} else if revert != nil {
			revert()
		}
		if cost < best {
			best = cost
			sinceImprove = 0
		} else {
			sinceImprove++
		}
		temp *= opt.Cooling
		if temp < 0.5 {
			temp = 0.5
		}
		// When the placement estimate carries no infeasibility penalties,
		// try to actually route everything.
		if an.moves%opt.RouteEvery == 0 && cost < penaltyUnroutable {
			if an.routeAll() {
				return true
			}
			// Each full-routing attempt is one negotiation round of the
			// convergence series and the progress stream (the IllMapped
			// scan is not free, so only when one of them is live).
			if an.att != nil {
				an.att.Round(an.moves, len(an.sess.IllMapped()), true)
			}
		}
	}
	return cost < penaltyUnroutable && an.routeAll()
}

// attributeFailure feeds the post-mortem on a failed restart: it
// best-effort re-routes the current placement (routeAll rips all routes
// on its first conflict, which would leave nothing to attribute), then
// names the resources blocking whatever stayed unroutable.
// Diagnostic-only — a no-op unless diagnostics are enabled.
func (an *annealer) attributeFailure() {
	if !an.att.Diagnosing() || len(an.sess.M.UnplacedNodes()) > 0 {
		return
	}
	for e := range an.g.Edges {
		if !an.sess.M.Routed(e) {
			_ = route.Edge(an.sess, an.router, e)
		}
	}
	route.AttributeFailures(an.att, an.sess, an.router)
}

const (
	penaltyUnplaced   = 5000
	penaltyUnroutable = 1000
)

// edgeCost estimates edge e's routing cost from placements alone: its
// latency when feasible, a large penalty plus the feasibility deficit
// when the latency cannot possibly route.
func (an *annealer) edgeCost(e int) int {
	ed := an.g.Edges[e]
	m := an.sess.M
	if !m.Placed(ed.From) || !m.Placed(ed.To) {
		return 0 // charged via the unplaced node
	}
	lat := m.Latency(e)
	need := an.router.NeedCycles(m.Place[ed.From].PE, m.Place[ed.To].PE)
	if lat < 1 || lat < need {
		deficit := need - lat
		if deficit < 1 {
			deficit = 1
		}
		return penaltyUnroutable + 10*deficit
	}
	return lat
}

func (an *annealer) totalCost() int {
	c := 0
	for v := range an.sess.M.Place {
		if !an.sess.M.Placed(v) {
			c += penaltyUnplaced
		}
	}
	for e := range an.g.Edges {
		c += an.edgeCost(e)
	}
	return c
}

// nodeLocalCost sums the cost terms the given nodes participate in.
func (an *annealer) nodeLocalCost(vs ...int) int {
	c := 0
	seen := map[int]bool{}
	for _, v := range vs {
		if !an.sess.M.Placed(v) {
			c += penaltyUnplaced
		}
		for _, eid := range append(append([]int{}, an.g.InEdges(v)...), an.g.OutEdges(v)...) {
			if !seen[eid] {
				seen[eid] = true
				c += an.edgeCost(eid)
			}
		}
	}
	return c
}

// initialRandom places every node at a random feasible slot, in
// topological order so dependency windows are meaningful. No routes are
// committed during annealing.
func (an *annealer) initialRandom() {
	order, err := an.g.TopoOrder()
	if err != nil {
		return
	}
	for _, v := range order {
		w := placer.TimeWindow(an.sess, v, an.asap[v], an.slack)
		if w.Empty() {
			continue
		}
		an.cands = placer.Candidates(an.sess, v, w, an.cands[:0])
		if len(an.cands) == 0 {
			continue
		}
		pl := an.cands[an.rng.Intn(len(an.cands))]
		an.eff.PlacementsTried++
		_ = an.sess.PlaceNode(v, pl.PE, pl.Time)
	}
}

// move perturbs the placement: relocate one random node to one random
// candidate slot, or swap two nodes' slots. Returns the cost delta and a
// revert closure (nil if the move was a no-op).
func (an *annealer) move() (int, func()) {
	v := an.rng.Intn(an.g.NumNodes())
	if an.sess.M.Placed(v) && an.rng.Float64() < 0.3 {
		return an.swapMove(v)
	}
	return an.relocateMove(v)
}

func (an *annealer) relocateMove(v int) (int, func()) {
	before := an.nodeLocalCost(v)
	oldPl := an.sess.M.Place[v]
	if an.sess.M.Placed(v) {
		an.sess.UnplaceNode(v)
	}
	// SA "selects one candidate randomly" (§V, Table I discussion): half
	// the moves draw from the dependency-feasible window, half from the
	// node's whole static schedule window — the blind draws are what make
	// SA need so many more iterations than PF*.
	w := placer.TimeWindow(an.sess, v, an.asap[v], an.slack)
	if an.rng.Intn(2) == 0 || w.Empty() {
		w = placer.Window{Lo: an.asap[v], Hi: an.asap[v] + an.slack}
	}
	if !w.Empty() {
		if an.cands = placer.Candidates(an.sess, v, w, an.cands[:0]); len(an.cands) > 0 {
			pl := an.cands[an.rng.Intn(len(an.cands))]
			an.eff.PlacementsTried++
			_ = an.sess.PlaceNode(v, pl.PE, pl.Time)
		}
	}
	after := an.nodeLocalCost(v)
	return after - before, func() {
		if an.sess.M.Placed(v) {
			an.sess.UnplaceNode(v)
		}
		if oldPl.PE >= 0 {
			if err := an.sess.PlaceNode(v, oldPl.PE, oldPl.Time); err != nil {
				panic("sa: revert failed: " + err.Error())
			}
		}
	}
}

func (an *annealer) swapMove(v int) (int, func()) {
	u := an.rng.Intn(an.g.NumNodes())
	if u == v || !an.sess.M.Placed(u) || !an.sess.M.Placed(v) {
		return 0, nil
	}
	pv, pu := an.sess.M.Place[v], an.sess.M.Place[u]
	before := an.nodeLocalCost(v, u)
	an.sess.UnplaceNode(v)
	an.sess.UnplaceNode(u)
	an.eff.PlacementsTried++
	if an.sess.PlaceNode(v, pu.PE, pu.Time) != nil || an.sess.PlaceNode(u, pv.PE, pv.Time) != nil {
		// Incompatible swap (memory rules or bank ports): undo outright.
		an.forcePlaceBack(v, pv, u, pu)
		return 0, nil
	}
	after := an.nodeLocalCost(v, u)
	return after - before, func() {
		an.sess.UnplaceNode(v)
		an.sess.UnplaceNode(u)
		an.forcePlaceBack(v, pv, u, pu)
	}
}

func (an *annealer) forcePlaceBack(v int, pv mapping.Placement, u int, pu mapping.Placement) {
	if an.sess.M.Placed(v) {
		an.sess.UnplaceNode(v)
	}
	if an.sess.M.Placed(u) {
		an.sess.UnplaceNode(u)
	}
	if err := an.sess.PlaceNode(v, pv.PE, pv.Time); err != nil {
		panic("sa: swap revert failed: " + err.Error())
	}
	if err := an.sess.PlaceNode(u, pu.PE, pu.Time); err != nil {
		panic("sa: swap revert failed: " + err.Error())
	}
}

// routeAll attempts a complete strict routing of the current placement;
// on failure every route is ripped again and the annealing continues.
func (an *annealer) routeAll() (ok bool) {
	rs := an.tr.StartSpan(an.span, "route_all").WithInt("move", int64(an.moves))
	defer func() { rs.WithBool("ok", ok).End() }()
	if len(an.sess.M.UnplacedNodes()) > 0 {
		return false
	}
	for e := range an.g.Edges {
		if err := route.Edge(an.sess, an.router, e); err != nil {
			an.clearRoutes()
			return false
		}
	}
	return true
}

func (an *annealer) clearRoutes() {
	for e := range an.g.Edges {
		an.sess.UnrouteEdge(e)
	}
}
