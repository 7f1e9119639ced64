package core

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/stats"
)

// refAssign is assign as it was before the forward check, kept as the
// differential reference for it: every placed trial is charged and
// routed, and a node's cycle constraints are built when its depth is
// entered. It shares admissible, routeNode and the scratch buffers with
// assign; the constraint lists it builds are its own.
func (g *generator) refAssign(i int) bool {
	if *g.budget <= 0 || g.a.pace.Expired() {
		return false
	}
	if i == len(g.u.nodes) {
		return true
	}
	v := g.u.nodes[i]
	cons := g.refConstraints(i, v)
	for _, c := range g.cands[v] {
		g.a.eff.PlacementsTried++
		if !g.admissible(cons, c) || !g.a.sess.CanPlace(v, c.pe, c.T) || g.a.sess.PlaceNode(v, c.pe, c.T) != nil {
			g.a.eff.PlacementsPruned++
			continue
		}
		*g.budget--
		g.a.eff.VerifyAttempts++
		routed, ok := g.routeNode(i, v)
		if ok {
			g.a.eff.VerifySuccesses++
			g.chosen[i] = c
			if g.refAssign(i + 1) {
				return true
			}
		}
		for _, eid := range routed {
			g.a.sess.UnrouteEdge(eid)
		}
		g.a.sess.UnplaceNode(v)
		if *g.budget <= 0 {
			return false
		}
	}
	return false
}

// refConstraints lists v's constraints against the first i cluster
// nodes, in-edges first, in a fresh slice.
func (g *generator) refConstraints(i, v int) []cycleCons {
	if g.a.opt.DisableCyclePruning {
		return nil
	}
	var cons []cycleCons
	for _, eid := range g.a.g.InEdges(v) {
		e := g.a.g.Edges[eid]
		if j := slices.Index(g.u.nodes[:i], e.From); j >= 0 {
			cons = append(cons, cycleCons{j: j, dist: e.Dist, in: true})
		}
	}
	for _, eid := range g.a.g.OutEdges(v) {
		e := g.a.g.Edges[eid]
		if j := slices.Index(g.u.nodes[:i], e.To); j >= 0 {
			cons = append(cons, cycleCons{j: j, dist: e.Dist})
		}
	}
	return cons
}

// refGenerate is generate over refAssign, without the trace spans.
func (a *amender) refGenerate(u *cluster, cands map[int][]pcand, props map[int]*propagation, budget *int) bool {
	for _, v := range u.nodes {
		if len(cands[v]) == 0 {
			return false
		}
	}
	gen := &generator{
		a:      a,
		u:      u,
		cands:  cands,
		props:  props,
		chosen: make([]pcand, len(u.nodes)),
		budget: budget,
		scr:    a.scratch(),
	}
	return gen.refAssign(0)
}

// forwardCase is one input of the forward-check differential: a PF*
// initial mapping of kernel on a 4x4 fabric with regs registers per PE,
// one cluster of its ill-mapped nodes seeded at size nodes and grown
// until every node has a candidate, and foreign nets holding about
// occupancy/16 of the free resources when placement enumeration starts.
type forwardCase struct {
	regs      int
	kernel    string
	seed      int64
	size      int
	occupancy int
}

// forwardGrowthCap bounds the differential's clusters.
const forwardGrowthCap = 10

// forwardKernels are the kernels the differential draws from.
var forwardKernels = []string{"atax", "bicg(u)", "cholesky", "fft", "gesummv", "gramsch", "lu", "mvt", "viterbi"}

// forwardBudgets are the MaxCombos budgets every case runs under: small
// ones run out in the middle of a subtree, the default rarely does.
var forwardBudgets = []int{1, 2, 3, 5, 8, 13, 21, 55, 600}

// forwardCaseOf derives a case from one random seed.
func forwardCaseOf(seed int64) forwardCase {
	rng := rand.New(rand.NewSource(seed))
	return forwardCase{
		regs:      []int{1, 2, 4}[rng.Intn(3)],
		kernel:    forwardKernels[rng.Intn(len(forwardKernels))],
		seed:      rng.Int63n(1 << 16),
		size:      2 + rng.Intn(5),
		occupancy: rng.Intn(6),
	}
}

func (c forwardCase) String() string {
	return fmt.Sprintf("4x4r%d/%s seed %d size %d occupancy %d/16", c.regs, c.kernel, c.seed, c.size, c.occupancy)
}

// sessionSnapshot is a session's placements, routes, bank ports and
// per-resource occupancy (net and phase).
type sessionSnapshot struct {
	place  []mapping.Placement
	routes [][]mrrg.Node
	ports  []mrrg.Node
	occ    []mrrg.Net
	phase  []int
}

func snapshotSession(s *mapping.Session) sessionSnapshot {
	snap := sessionSnapshot{
		place: slices.Clone(s.M.Place),
		ports: slices.Clone(s.M.BankPorts),
	}
	for _, r := range s.M.Routes {
		snap.routes = append(snap.routes, slices.Clone(r))
	}
	for n := mrrg.Node(0); int(n) < s.Graph.NumNodes(); n++ {
		net, phase := s.State.Occupant(n)
		snap.occ = append(snap.occ, net)
		snap.phase = append(snap.phase, phase)
	}
	return snap
}

// equal compares two snapshots; an unrouted edge (nil route) differs
// from a routed one with an empty route.
func (s sessionSnapshot) equal(o sessionSnapshot) bool {
	return slices.Equal(s.place, o.place) && slices.Equal(s.ports, o.ports) &&
		slices.EqualFunc(s.routes, o.routes, func(a, b []mrrg.Node) bool { return (a == nil) == (b == nil) && slices.Equal(a, b) }) &&
		slices.Equal(s.occ, o.occ) && slices.Equal(s.phase, o.phase)
}

// genOutcome is everything one placement enumeration decided or spent:
// its result, the budget left, its tally and the session it committed.
type genOutcome struct {
	ok     bool
	budget int
	eff    stats.Effort
	after  sessionSnapshot
}

// forwardTally sums what the differential exercised, so a test can
// insist that its inputs reach every branch of the forward check.
type forwardTally struct {
	runs, placed, forwardRejected, exhausted int
}

// checkForwardCheck runs generate and the reference on case c under
// every budget, with cycle pruning on and off, from the same session
// state. Both must return the same result and leave the same budget
// and the same session (placements, routes, occupancy), and the
// reference's routed trials must be exactly generate's routed plus
// forward-rejected ones. Between runs the committed cluster is ripped
// up, which must restore the session exactly.
func checkForwardCheck(t *testing.T, c forwardCase, tally *forwardTally) {
	t.Helper()
	am := illAmender(t, c.kernel, arch.New4x4(c.regs), c.seed)
	defer am.sess.Close()
	am.opt.InitialClusterSize = c.size
	ill := am.sess.IllMapped()
	if len(ill) == 0 {
		return
	}
	// Grow the cluster as mapCluster does until every node has a
	// candidate, or give the case up at the growth cap.
	u := am.buildCluster(ill)
	props := am.propagateAll(u)
	cands := am.intersect(u, props)
	for slices.ContainsFunc(u.nodes, func(v int) bool { return len(cands[v]) == 0 }) {
		if len(u.nodes) >= forwardGrowthCap || !am.growTowardsBlocker(u, cands, props) && !am.growCluster(u) {
			return
		}
		props = am.propagateAll(u)
		cands = am.intersect(u, props)
	}
	// Foreign nets take resources after the flood, as routes committed
	// by earlier trials do: candidates land on held FU slots and probe
	// paths run through held hops.
	rng := rand.New(rand.NewSource(c.seed))
	st := am.sess.State
	foreign := len(am.g.Nodes)
	for n := mrrg.Node(0); int(n) < am.sess.Graph.NumNodes(); n++ {
		if st.Free(n) && rng.Intn(16) < c.occupancy {
			if err := st.Reserve(n, mrrg.Net(foreign+rng.Intn(3)), rng.Intn(4)); err != nil {
				t.Fatal(err)
			}
		}
	}
	before := snapshotSession(am.sess)
	run := func(gen func(*cluster, map[int][]pcand, map[int]*propagation, *int) bool, budget int) genOutcome {
		var eff stats.Effort
		am.eff = &eff
		ok := gen(u, cands, props, &budget)
		out := genOutcome{ok: ok, budget: budget, eff: eff, after: snapshotSession(am.sess)}
		for _, v := range u.nodes {
			am.sess.RipNode(v)
		}
		if !snapshotSession(am.sess).equal(before) {
			t.Fatalf("%v: ripping up the committed cluster did not restore the session", c)
		}
		return out
	}
	for _, disable := range []bool{false, true} {
		am.opt.DisableCyclePruning = disable
		for _, budget := range forwardBudgets {
			name := fmt.Sprintf("%v cluster %v DisableCyclePruning=%v budget %d", c, u.nodes, disable, budget)
			want := run(am.refGenerate, budget)
			got := run(am.generate, budget)
			if got.ok != want.ok || got.budget != want.budget {
				t.Fatalf("%s: generate = %v with %d budget left, reference %v with %d", name, got.ok, got.budget, want.ok, want.budget)
			}
			if !got.after.equal(want.after) {
				t.Fatalf("%s: committed placements, routes or occupancy differ from the reference", name)
			}
			if n := got.eff.VerifyAttempts + got.eff.ForwardRejected; n != want.eff.VerifyAttempts {
				t.Fatalf("%s: %d routed + %d forward-rejected trials, reference routed %d",
					name, got.eff.VerifyAttempts, got.eff.ForwardRejected, want.eff.VerifyAttempts)
			}
			tally.runs++
			tally.placed += int(want.eff.VerifyAttempts)
			tally.forwardRejected += int(got.eff.ForwardRejected)
			if got.budget <= 0 {
				tally.exhausted++
			}
		}
	}
}

// TestForwardCheckMatchesReference is the differential of the forward
// check against assign without it, over small clusters on the three 4x4
// fabrics with random foreign occupancy (forwardCaseOf).
func TestForwardCheckMatchesReference(t *testing.T) {
	var tally forwardTally
	for seed := int64(1); seed <= 100; seed++ {
		checkForwardCheck(t, forwardCaseOf(seed), &tally)
	}
	t.Logf("%d enumerations, %d placed trials, %d forward-rejected, %d ran out of budget",
		tally.runs, tally.placed, tally.forwardRejected, tally.exhausted)
	if tally.forwardRejected == 0 || tally.exhausted == 0 || tally.exhausted == tally.runs {
		t.Fatalf("the inputs missed a branch: %+v", tally)
	}
}

// FuzzForwardCheck runs the forward-check differential on cases derived
// from fuzzer-chosen seeds.
func FuzzForwardCheck(f *testing.F) {
	for _, seed := range []int64{1, 2, 3, 17, 99} {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed int64) {
		var tally forwardTally
		checkForwardCheck(t, forwardCaseOf(seed), &tally)
	})
}
