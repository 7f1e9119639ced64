// Package core implements Rewire, the paper's consolidated-routing CGRA
// mapping paradigm. Rewire does not build mappings from scratch: it takes
// the (typically invalid) initial mapping produced by a conventional
// mapper (PF*'s initial-placement phase here, as in the paper), finds the
// ill-mapped nodes, and amends them in multi-node clusters:
//
//  1. Cluster: pick connected ill-mapped nodes U (capped, default 15).
//  2. Propagate: flood routing probes forward from the mapped parents of
//     U and backward from its mapped children, producing propagation
//     tuples (source, direction, PE, routing cycles), deduplicated per
//     PE — one network sweep shared by every node and edge of U.
//  3. Intersect: a PE becomes a placement candidate for v in U only if
//     tuples from all of v's (representative) sources imply a common
//     execution cycle (Eq. 1 of the paper).
//  4. Generate: enumerate Placement(U) in topological order under
//     execution-cycle data-dependency constraints (Algorithm 2), then
//     verify the survivor by actually routing every incident edge,
//     reusing the propagation paths where possible.
//  5. Grow: if U cannot be mapped, append the nearest connected node (by
//     DFS distance) and retry; at the size cap, give up and increase II.
package core

import (
	"context"
	"math/rand"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/diag"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/route"
	"rewire/internal/stats"
	"rewire/internal/sweep"
	"rewire/internal/trace"
)

// Options tunes Rewire. Zero values select the defaults (the paper's
// published constants).
type Options struct {
	sweep.RunOptions
	// ClusterCap is the maximum cluster size (default 15, §IV-B).
	ClusterCap int
	// InitialClusterSize is how many connected ill nodes seed a cluster
	// before growth (default 4).
	InitialClusterSize int
	// RoundsAnchored multiplies the parent/child cycle difference to set
	// the propagation round count (default 3, §IV-C); RoundsUnanchored
	// multiplies the longest path within U when either side has no
	// anchors (default 5).
	RoundsAnchored   int
	RoundsUnanchored int
	// MaxCombos bounds Placement(U) combinations per generation attempt
	// (default 600, counting placed trials, whether routed or rejected
	// by the forward check).
	MaxCombos int
	// MaxCandidatesPerNode truncates each node's candidate list (default
	// 64, sorted by execution cycle).
	MaxCandidatesPerNode int
	// ClusterFailBudget is how many cluster amendment attempts may fail
	// (reach the size cap unmapped) before the current initial mapping is
	// abandoned and a fresh one is drawn (default 6).
	ClusterFailBudget int
	// AttemptsPerII is how many fresh initial mappings are amended before
	// the II is declared unreachable (default 4). Together with
	// ClusterFailBudget it bounds the work per II well below the
	// wall-clock limit, which is what makes Rewire's compilation fast:
	// hopeless IIs are abandoned after bounded work instead of burning
	// the full per-II time budget.
	AttemptsPerII int

	// Ablation switches (benchmarked in bench_test.go; off in normal use).
	//
	// DisableTuplePaths turns off the reuse of propagation probe paths
	// during verification (every edge goes through the router instead) —
	// ablating the paper's "reuse of wire information".
	DisableTuplePaths bool
	// DisableCyclePruning turns off the execution-cycle constraint checks
	// of Algorithm 2, leaving all pruning to routing verification.
	DisableCyclePruning bool
}

func (o Options) withDefaults() Options {
	o.RunOptions = o.RunOptions.WithDefaults()
	if o.ClusterCap == 0 {
		o.ClusterCap = 15
	}
	if o.InitialClusterSize == 0 {
		o.InitialClusterSize = 4
	}
	if o.RoundsAnchored == 0 {
		o.RoundsAnchored = 3
	}
	if o.RoundsUnanchored == 0 {
		o.RoundsUnanchored = 5
	}
	if o.MaxCombos == 0 {
		o.MaxCombos = 600
	}
	if o.MaxCandidatesPerNode == 0 {
		o.MaxCandidatesPerNode = 64
	}
	if o.ClusterFailBudget == 0 {
		o.ClusterFailBudget = 6
	}
	if o.AttemptsPerII == 0 {
		o.AttemptsPerII = 4
	}
	return o
}

// Map runs Rewire: per II, build PF*'s initial mapping, then amend it
// cluster by cluster until valid; on failure increase the II.
func Map(g *dfg.Graph, a *arch.CGRA, opt Options) (*mapping.Mapping, stats.Result) {
	return MapCtx(context.Background(), g, a, opt)
}

// MapCtx is Map with cancellation: ctx aborts the serial II sweep
// (in-flight attempts unwind within one cluster iteration) and the run
// reports failure. Wider sweeps go through sweep.Drive with Row.
func MapCtx(ctx context.Context, g *dfg.Graph, a *arch.CGRA, opt Options) (*mapping.Mapping, stats.Result) {
	return sweep.Drive(ctx, g, a, sweep.Solo(Row(opt), 1), opt.RunOptions)
}

// Row is Rewire's row in the backend table, tuned by opt's
// Rewire-specific fields; the run options come from the driver.
func Row(opt Options) sweep.Backend {
	return sweep.Backend{Name: "rewire", Stat: "Rewire", Span: "rewire.map",
		Attempt: func(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, run sweep.RunOptions) (*mapping.Mapping, stats.Effort, bool) {
			o := opt // concurrent lanes share the row
			o.RunOptions = run
			return AttemptII(ctx, g, a, ii, seed, root, o)
		}}
}

// AttemptII runs exactly one Rewire II attempt under root with a
// driver-derived seed: draw up to AttemptsPerII fresh PF* initial
// mappings and amend each cluster by cluster until one validates or
// the II's time budget expires. It returns the mapping (nil on
// failure), the attempt's effort tally, and whether the II is
// feasible. The outcome is a pure function of (g, a, ii, seed, opt).
func AttemptII(ctx context.Context, g *dfg.Graph, a *arch.CGRA, ii int, seed int64, root *trace.Span, opt Options) (*mapping.Mapping, stats.Effort, bool) {
	opt = opt.withDefaults()
	tr := opt.Tracer
	hs := newHists(tr)
	var eff stats.Effort
	defer eff.Fill(tr, "pf.remaps", true)
	rng := rand.New(rand.NewSource(seed))
	pace := sweep.NewPacer(ctx, time.Now().Add(opt.TimePerII), paceEvery)
	iiSpan := tr.StartSpan(root, "ii").WithInt("ii", int64(ii))
	// Rewire amends whatever initial mapping it is given; initial
	// mappings vary a lot in amendability, so each II retries with a
	// few fresh PF* initial seeds (bounded by AttemptsPerII and the
	// time budget).
	for attempt := int64(0); attempt < int64(opt.AttemptsPerII) && (attempt == 0 || !pace.ExpiredNow()); attempt++ {
		aSpan := tr.StartSpan(iiSpan, "attempt").WithInt("attempt", attempt)
		m := mapping.New(g, a, ii)
		sess, router := pathfinder.BuildInitialTraced(ctx, m, seed^(attempt<<16), &eff, tr, aSpan)
		att := opt.Obs.AttemptStart(ii, int(attempt))
		am := &amender{
			g:      g,
			sess:   sess,
			router: router,
			rng:    rng,
			eff:    &eff,
			opt:    opt,
			pace:   pace,
			tr:     tr,
			hists:  hs,
			span:   aSpan,
			att:    att,
		}
		ok := am.amend()
		// Each initial mapping's router retires here: book its work win
		// or lose (failed amendments spend real routing effort too), and
		// before the diagnostic-only failure attribution searches.
		eff.RouterExpansions += router.Expansions
		aSpan.WithBool("ok", ok).End()
		if !ok {
			// Post-mortem: name what the leftover ill-mapped edges are
			// fighting over (diagnostic-only, nil-safe).
			route.AttributeFailures(att, am.sess, am.router)
		}
		att.End(ok, ctx.Err() != nil, 0, am.sess)
		if !ok {
			am.sess.Close()
			continue
		}
		if err := mapping.Validate(am.sess.M); err != nil {
			panic("rewire: produced invalid mapping: " + err.Error())
		}
		iiSpan.WithBool("ok", true).End()
		out := am.sess.M
		am.sess.Close()
		return out, eff, true
	}
	iiSpan.WithBool("ok", false).End()
	return nil, eff, false
}

// paceEvery is how many generator recursion steps pass between real
// deadline/cancellation checks; see sweep.Pacer. Coarse enough that
// time.Now vanishes from the enumeration profile, fine enough that a
// cancelled speculative attempt unwinds within one cluster iteration.
const paceEvery = 16

// amender is the per-II amendment state.
type amender struct {
	g      *dfg.Graph
	sess   *mapping.Session
	router *route.Router
	rng    *rand.Rand
	eff    *stats.Effort // the attempt's tally
	opt    Options
	pace   *sweep.Pacer // amortised deadline + cancellation polling

	// tr/hists/span instrument the amendment; all stay nil/zero when
	// tracing is disabled (every emit call is then a pointer check).
	tr    *trace.Tracer
	hists hists
	span  *trace.Span // parent for cluster_amendment spans
	cur   *trace.Span // the open cluster_amendment span (parent of phase spans)

	// att feeds the attempt's post-mortem record and progress stream;
	// nil (free no-ops) when both are disabled.
	att *diag.IIAttempt

	// scr is the pooled per-amendment working memory (see scratch.go),
	// drawn lazily so tests can call the phase methods directly without
	// running amend. Single-goroutine like the rest of the amender.
	scr *amendScratch

	amendRounds int // amendment rounds completed (for round progress events)
}

// scratch returns the amender's pooled working memory, acquiring it on
// first use.
func (a *amender) scratch() *amendScratch {
	if a.scr == nil {
		a.scr = getAmendScratch(len(a.g.Nodes))
	}
	return a.scr
}

// amend repairs the initial mapping cluster by cluster (Algorithm 1,
// lines 5-15). A cluster that stays unmappable at the size cap counts as
// a failure; after ClusterFailBudget failures the II is declared
// unreachable. Re-seeding after a failure matters: the failed cluster's
// nodes are now unplaced and a different random seed groups them with
// different neighbours.
func (a *amender) amend() bool {
	a.scratch() // acquire the pooled working memory for the whole attempt
	defer func() { putAmendScratch(a.scr); a.scr = nil }()
	failures := 0
	for !a.pace.ExpiredNow() {
		ill := a.sess.IllMapped()
		if len(ill) == 0 {
			return true
		}
		a.amendRounds++
		a.att.Round(a.amendRounds, len(ill), true)
		u := a.buildCluster(ill)
		if !a.mapCluster(u) {
			// Keep the rip-ups: a failed cluster leaves its nodes unmapped,
			// so the next (randomly re-seeded) cluster absorbs them together
			// with different neighbours. This progressive loosening lets the
			// amendment escape a structurally bad initial mapping instead of
			// retrying against the same frozen obstacles.
			failures++
			if failures >= a.opt.ClusterFailBudget {
				return false
			}
		}
	}
	return len(a.sess.IllMapped()) == 0
}

// mapCluster runs propagate → intersect → generate for one cluster,
// growing it on failure up to the cap (Algorithm 1, lines 7-13). The
// routed-trial budget is shared across the growth retries so one stubborn
// cluster cannot consume the whole II deadline.
func (a *amender) mapCluster(u *cluster) (ok bool) {
	cs := a.tr.StartSpan(a.span, "cluster_amendment").WithInt("initial_size", int64(len(u.nodes)))
	defer func() {
		cs.WithInt("final_size", int64(len(u.nodes))).WithBool("ok", ok).End()
	}()
	prevCur := a.cur
	a.cur = cs
	defer func() { a.cur = prevCur }()

	budget := a.opt.MaxCombos
	for {
		a.eff.ClusterAmendments++
		a.hists.clusterSize.Observe(int64(len(u.nodes)))
		props := a.propagateAll(u)
		cands := a.intersectTraced(u, props)
		if a.generate(u, cands, props, &budget) {
			return true
		}
		if budget <= 0 || len(u.nodes) >= a.opt.ClusterCap {
			return false
		}
		// Prefer absorbing the anchor that is starving a candidate-less
		// node (it is boxed in on the fabric); otherwise the nearest
		// connected node.
		if !a.growTowardsBlocker(u, cands, props) && !a.growCluster(u) {
			return false
		}
		if a.pace.ExpiredNow() {
			return false
		}
	}
}

// intersectTraced wraps intersect in its phase span and records the
// PCandidate-set sizes (Eq. 1's output: how constrained each cluster
// node is).
func (a *amender) intersectTraced(u *cluster, props map[int]*propagation) map[int][]pcand {
	is := a.tr.StartSpan(a.cur, "intersect").WithInt("nodes", int64(len(u.nodes)))
	cands := a.intersect(u, props)
	total := 0
	for _, v := range u.nodes {
		n := len(cands[v])
		total += n
		a.hists.pcandsPerNode.Observe(int64(n))
	}
	a.eff.PCandidates += int64(total)
	is.WithInt("pcandidates", int64(total)).End()
	return cands
}
