package core

import (
	"context"
	"math/rand"
	"slices"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/route"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

// fixture builds an amender over an empty mapping at the given II with a
// few pre-placed anchor nodes.
type fixture struct {
	g    *dfg.Graph
	am   *amender
	sess *mapping.Session
}

// testCluster builds a cluster over numNodes DFG nodes from an explicit
// member list.
func testCluster(numNodes int, members ...int) *cluster {
	u := &cluster{}
	u.reset(numNodes)
	for _, v := range members {
		u.add(v)
	}
	return u
}

// diamondFixture: a -> {b, c} -> d, with a and d placed, b and c ill.
func diamondFixture(t *testing.T, ii int) *fixture {
	t.Helper()
	g := dfg.New("diamond")
	a := g.AddNode("a", dfg.OpAdd)
	b := g.AddNode("b", dfg.OpAdd)
	c := g.AddNode("c", dfg.OpMul)
	d := g.AddNode("d", dfg.OpAdd)
	g.AddEdge(a, b, 0)
	g.AddEdge(a, c, 0)
	g.AddEdge(b, d, 0)
	g.AddEdge(c, d, 0)
	m := mapping.New(g, arch.New4x4(2), ii)
	sess := mapping.NewSession(m)
	if err := sess.PlaceNode(a, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := sess.PlaceNode(d, 6, 4); err != nil {
		t.Fatal(err)
	}
	am := &amender{
		g:      g,
		sess:   sess,
		router: route.ForSession(sess),
		rng:    rand.New(rand.NewSource(1)),
		eff:    &stats.Effort{},
		opt:    Options{}.withDefaults(),
	}
	return &fixture{g: g, am: am, sess: sess}
}

func TestPropagationTuplesForward(t *testing.T) {
	f := diamondFixture(t, 3)
	p := f.am.propagate(0, true, 6, f.am.snapshot()) // forward from node a at PE5@0
	// The seed tuple: a consumer on PE 5 one cycle later.
	if !p.hasCycle(5, 1) {
		t.Fatal("missing seed tuple (own PE, 1 cycle)")
	}
	// East neighbour PE 6 reachable with 2 cycles (one link hop).
	if !p.hasCycle(6, 2) {
		t.Fatal("missing adjacent tuple (PE6, 2 cycles)")
	}
	// Far corner PE 15: Manhattan 4 from PE5 -> at least 5 cycles.
	if p.hasCycle(15, 3) {
		t.Fatal("impossible tuple at distant PE")
	}
	if !p.hasCycle(15, 5) {
		t.Fatal("distant PE unreachable within rounds")
	}
}

func TestPropagationTuplesBackward(t *testing.T) {
	f := diamondFixture(t, 3)
	p := f.am.propagate(3, false, 6, f.am.snapshot()) // backward from node d at PE6@4
	// A producer on PE 6 one cycle earlier.
	if !p.hasCycle(6, 1) {
		t.Fatal("missing backward seed tuple")
	}
	// West neighbour PE 5 with 2 cycles.
	if !p.hasCycle(5, 2) {
		t.Fatal("missing backward adjacent tuple")
	}
}

func TestPropagationRespectsOccupancy(t *testing.T) {
	f := diamondFixture(t, 3)
	// Block every resource around PE 5 except the FU itself: occupy its
	// four links and both registers at all time slots with a foreign net.
	gph := f.sess.Graph
	for tt := 0; tt < 3; tt++ {
		for d := arch.Dir(0); d < arch.NumDirs; d++ {
			ln := gph.Link(5, d, tt)
			if gph.Valid(ln) {
				if err := f.sess.State.Reserve(ln, 99, 0); err != nil {
					t.Fatal(err)
				}
			}
		}
		for r := 0; r < 2; r++ {
			if err := f.sess.State.Reserve(gph.Reg(5, r, tt), 99, 0); err != nil {
				t.Fatal(err)
			}
		}
	}
	p := f.am.propagate(0, true, 6, f.am.snapshot())
	// Only same-PE forwarding remains: the FU chain of PE 5.
	if p.hasCycle(6, 2) {
		t.Fatal("probe escaped through blocked links")
	}
	if !p.hasCycle(5, 1) {
		t.Fatal("FU forwarding chain should survive")
	}
}

func TestExtractPathMatchesRouteRules(t *testing.T) {
	f := diamondFixture(t, 3)
	p := f.am.propagate(0, true, 6, f.am.snapshot())
	// Route a->b with latency 2 to PE 6 using the probe path.
	if !p.hasCycle(6, 2) {
		t.Fatal("no tuple")
	}
	path := p.extractPath(nil, 6, 2)
	if err := f.sess.PlaceNode(1, 6, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.sess.RouteEdge(0, path); err != nil {
		t.Fatalf("probe path rejected: %v", err)
	}
}

func TestExtractPathBackward(t *testing.T) {
	f := diamondFixture(t, 3)
	p := f.am.propagate(3, false, 6, f.am.snapshot())
	if !p.hasCycle(5, 2) { // producer on PE5, 2 cycles before d
		t.Fatal("no tuple")
	}
	path := p.extractPath(nil, 5, 2)
	// Place node b on PE5 at time 2 (d executes at 4) and route b->d.
	if err := f.sess.PlaceNode(1, 5, 2); err != nil {
		t.Fatal(err)
	}
	if err := f.sess.RouteEdge(2, path); err != nil {
		t.Fatalf("backward probe path rejected: %v", err)
	}
}

func TestIntersectionRequiresAllSources(t *testing.T) {
	f := diamondFixture(t, 3)
	u := testCluster(f.g.NumNodes(), 1, 2)
	u.refreshOrder(f.am)
	props := f.am.propagateAll(u)
	cands := f.am.intersect(u, props)
	// Every candidate of b must be reachable from a AND reach d with
	// consistent timing: T in (0, 4), i.e. latency from a >= 1 and to d
	// >= 1.
	for _, c := range cands[1] {
		if c.T <= 0 || c.T >= 4 {
			t.Fatalf("candidate %v violates anchor timing", c)
		}
		// Feasibility against both anchors (necessary conditions).
		if lat := c.T - 0; lat < f.g.NumNodes()/f.g.NumNodes() { // >= 1
			t.Fatalf("bad latency %d", lat)
		}
	}
	if len(cands[1]) == 0 || len(cands[2]) == 0 {
		t.Fatal("open fabric should give candidates for both ill nodes")
	}
}

func TestMapClusterRepairsDiamond(t *testing.T) {
	f := diamondFixture(t, 3)
	ill := f.sess.IllMapped()
	if len(ill) != 2 {
		t.Fatalf("ill = %v, want b and c", ill)
	}
	// b and c are not DFG-adjacent, so they amend as separate clusters;
	// amend drives the cluster loop to completion.
	f.am.pace = sweep.NewPacer(context.Background(), time.Now().Add(5*time.Second), paceEvery)
	if !f.am.amend() {
		t.Fatal("amendment failed on an open fabric")
	}
	if len(f.am.sess.IllMapped()) != 0 {
		t.Fatalf("still ill: %v", f.am.sess.IllMapped())
	}
	if err := mapping.Validate(f.am.sess.M); err != nil {
		t.Fatal(err)
	}
}

func TestGrowClusterAbsorbsNearest(t *testing.T) {
	f := diamondFixture(t, 3)
	u := testCluster(f.g.NumNodes(), 1)
	u.refreshOrder(f.am)
	if !f.am.growCluster(u) {
		t.Fatal("growth failed")
	}
	if u.size != 2 {
		t.Fatalf("cluster size = %d", u.size)
	}
	// The absorbed node is a DFG neighbour of b (a or d), and if it was
	// placed it must now be ripped.
	for v := range u.in {
		if !u.in[v] {
			continue
		}
		if v != 1 && v != 0 && v != 3 {
			t.Fatalf("absorbed non-neighbour %d", v)
		}
		if f.sess.M.Placed(v) {
			t.Fatalf("absorbed node %d still placed", v)
		}
	}
}

func TestRoundsHeuristics(t *testing.T) {
	f := diamondFixture(t, 3)
	u := testCluster(f.g.NumNodes(), 1, 2)
	u.refreshOrder(f.am)
	// Anchored: parents {a@0}, children {d@4} -> base 4, x3 = 12.
	r := f.am.rounds(u, []int{0}, []int{3})
	if r != 12 {
		t.Fatalf("anchored rounds = %d, want 12", r)
	}
	// Unanchored: longest path within U (b,c disconnected) = 0 -> base 1,
	// x5 = 5, floored at II+2.
	r = f.am.rounds(u, nil, []int{3})
	if r != 5 {
		t.Fatalf("half-anchored rounds = %d, want 5", r)
	}
}

func TestMapKernelEndToEnd(t *testing.T) {
	g := kernels.MustLoad("mvt")
	m, res := Map(g, arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if m == nil || !res.Success {
		t.Fatalf("failed: %v", res)
	}
	if err := mapping.Validate(m); err != nil {
		t.Fatal(err)
	}
	if res.II < res.MII {
		t.Fatalf("II %d below MII %d", res.II, res.MII)
	}
}

func TestAmendmentOnlyTouchesIllRegions(t *testing.T) {
	// Build a PF* initial mapping, remember the healthy placements, amend,
	// and check Rewire produced a valid mapping that kept II.
	g := kernels.MustLoad("gesummv")
	a := arch.New4x4(4)
	mii := g.MII(a.NumPEs(), a.NumMemPEs(), a.BankPorts())
	var eff stats.Effort
	sess, router := pathfinder.BuildInitialTraced(context.Background(), mapping.New(g, a, mii+1), 5, &eff, nil, nil)
	am := &amender{
		g: g, sess: sess, router: router,
		rng: rand.New(rand.NewSource(5)), eff: &eff,
		opt:  Options{}.withDefaults(),
		pace: sweep.NewPacer(context.Background(), time.Now().Add(5*time.Second), paceEvery),
	}
	if !am.amend() {
		t.Skip("amendment did not converge at MII+1 with this seed")
	}
	if err := mapping.Validate(am.sess.M); err != nil {
		t.Fatal(err)
	}
}

func TestVerifyCountersTrackAttempts(t *testing.T) {
	g := kernels.MustLoad("lu")
	_, res := Map(g, arch.New4x4(4), Options{RunOptions: sweep.RunOptions{Seed: 2, TimePerII: 2 * time.Second}})
	if !res.Success {
		t.Skip("no mapping in budget")
	}
	if res.VerifyAttempts == 0 || res.VerifySuccesses == 0 {
		t.Fatalf("verification counters empty: %+v", res)
	}
	if res.VerifySuccesses > res.VerifyAttempts {
		t.Fatal("successes exceed attempts")
	}
}

func TestBackwardKeyDistinct(t *testing.T) {
	for _, s := range []int{0, 1, 7, 100} {
		if backwardKey(s) == s || backwardKey(s) >= 0 {
			t.Fatalf("backwardKey(%d) = %d must be a distinct negative", s, backwardKey(s))
		}
	}
}

func TestPropOfSelectsDirection(t *testing.T) {
	props := map[int]*propagation{
		2:              {source: 2, forward: true},
		backwardKey(2): {source: 2, forward: false},
	}
	if p := propOf(props, 2, true); p == nil || !p.forward {
		t.Fatal("forward lookup failed")
	}
	if p := propOf(props, 2, false); p == nil || p.forward {
		t.Fatal("backward lookup failed")
	}
	if p := propOf(props, 9, true); p != nil {
		t.Fatal("missing anchor should be nil")
	}
}

// TestRejectedPlacementTrialAllocs pins a placement trial on an occupied
// FU at zero allocations: assign rejects it before PlaceNode, which
// would format an error, and counts it as pruned.
func TestRejectedPlacementTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := diamondFixture(t, 3)
	u := testCluster(f.g.NumNodes(), 1)
	u.refreshOrder(f.am)
	budget := 10
	// Node a holds PE 5's FU at time 0.
	gen := &generator{
		a:      f.am,
		u:      u,
		cands:  map[int][]pcand{1: {{pe: 5, T: 0}, {pe: 5, T: 3}}},
		chosen: make([]pcand, 1),
		budget: &budget,
		scr:    f.am.scratch(),
	}
	gen.buildConstraints()
	if gen.assign(0) {
		t.Fatal("a trial on an occupied FU was accepted")
	}
	if f.am.eff.PlacementsPruned != 2 || budget != 10 {
		t.Fatalf("pruned %d trials with budget %d left, want 2 and 10", f.am.eff.PlacementsPruned, budget)
	}
	if allocs := testing.AllocsPerRun(100, func() { gen.assign(0) }); allocs != 0 {
		t.Fatalf("rejected placement trial allocates %.1f times, want 0", allocs)
	}
}

// TestForwardRejectedTrialAllocs pins a forward-rejected placement
// trial at zero allocations: b places and is charged, but every
// candidate of c, the next cluster node, sits on a's FU slot, so assign
// unplaces b again without routing anything.
func TestForwardRejectedTrialAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := diamondFixture(t, 3)
	u := testCluster(f.g.NumNodes(), 1, 2)
	u.refreshOrder(f.am)
	budget := 10
	gen := &generator{
		a: f.am,
		u: u,
		cands: map[int][]pcand{
			1: {{pe: 9, T: 1}, {pe: 10, T: 2}},
			2: {{pe: 5, T: 0}, {pe: 5, T: 3}},
		},
		chosen: make([]pcand, 2),
		budget: &budget,
		scr:    f.am.scratch(),
	}
	gen.buildConstraints()
	if gen.assign(0) {
		t.Fatal("a cluster whose last node has no free slot was placed")
	}
	e := f.am.eff
	if e.ForwardRejected != 2 || e.VerifyAttempts != 0 || e.PlacementsPruned != 0 || budget != 8 {
		t.Fatalf("forward-rejected %d, routed %d, pruned %d with budget %d left, want 2, 0, 0 and 8",
			e.ForwardRejected, e.VerifyAttempts, e.PlacementsPruned, budget)
	}
	if f.sess.M.Placed(1) || f.sess.M.Placed(2) {
		t.Fatal("a forward-rejected trial stayed placed")
	}
	if allocs := testing.AllocsPerRun(100, func() { budget = 10; gen.assign(0) }); allocs != 0 {
		t.Fatalf("forward-rejected trial allocates %.1f times, want 0", allocs)
	}
}

// TestRejectedProbePathAllocs pins a rejected probe-path try at zero
// allocations: the path is extracted into scratch and CanRoute turns it
// down, so no path is allocated, no error formatted and nothing reserved
// and rolled back. RouteEdge must reject the same path.
func TestRejectedProbePathAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	f := diamondFixture(t, 3)
	u := testCluster(f.g.NumNodes(), 1)
	u.refreshOrder(f.am)
	p := f.am.propagate(0, true, 6, f.am.snapshot())
	// b goes on PE 6 at T 2: a's probe path to it is one link, which a
	// foreign net takes after the flood.
	if err := f.sess.PlaceNode(1, 6, 2); err != nil {
		t.Fatal(err)
	}
	if !p.hasCycle(6, 2) {
		t.Fatal("no tuple")
	}
	hop := p.extractPath(nil, 6, 2)
	if err := f.sess.State.Reserve(hop[0], 99, 1); err != nil {
		t.Fatal(err)
	}
	if f.sess.RouteEdge(0, hop) == nil {
		t.Fatal("RouteEdge accepted a path through a foreign-held hop")
	}
	gen := &generator{a: f.am, u: u, scr: f.am.scratch()}
	free := slices.Clone(f.sess.State.FreeRows())
	if gen.routeProbe(0, p, 6, 2) {
		t.Fatal("a probe path through a foreign-held hop was routed")
	}
	if f.sess.M.Routed(0) || !slices.Equal(f.sess.State.FreeRows(), free) {
		t.Fatal("a rejected probe path changed the session")
	}
	if allocs := testing.AllocsPerRun(100, func() { gen.routeProbe(0, p, 6, 2) }); allocs != 0 {
		t.Fatalf("rejected probe-path try allocates %.1f times, want 0", allocs)
	}
}

// TestFUSlotConflictPrunedWithoutVerify checks that a cluster candidate
// on the FU slot of an earlier chosen cluster node is pruned without a
// verify, by CanPlace rather than by admissible's cycle pruning: b and
// c share no edge, so cycle pruning has nothing to reject, and the
// counters must be the same with it disabled.
func TestFUSlotConflictPrunedWithoutVerify(t *testing.T) {
	type counts struct{ tried, pruned, verified int64 }
	var runs []counts
	for _, disable := range []bool{false, true} {
		f := diamondFixture(t, 3)
		f.am.opt.DisableCyclePruning = disable
		u := testCluster(f.g.NumNodes(), 1, 2)
		u.refreshOrder(f.am)
		budget := 10
		// b takes PE 5's FU slot 2; c's first two candidates sit on that
		// slot, at T 2 and at T 5 = 2 + II.
		gen := &generator{
			a: f.am,
			u: u,
			cands: map[int][]pcand{
				1: {{pe: 5, T: 2}},
				2: {{pe: 5, T: 2}, {pe: 5, T: 5}, {pe: 6, T: 2}},
			},
			chosen: make([]pcand, 2),
			budget: &budget,
			scr:    f.am.scratch(),
		}
		gen.buildConstraints()
		if !gen.assign(0) {
			t.Fatalf("DisableCyclePruning=%v: the cluster did not place", disable)
		}
		e := f.am.eff
		runs = append(runs, counts{e.PlacementsTried, e.PlacementsPruned, e.VerifyAttempts})
		if got := (counts{4, 2, 2}); runs[len(runs)-1] != got {
			t.Fatalf("DisableCyclePruning=%v: tried, pruned, verified = %+v, want %+v", disable, runs[len(runs)-1], got)
		}
		if p := f.sess.M.Place[2]; p != (mapping.Placement{PE: 6, Time: 2}) {
			t.Fatalf("DisableCyclePruning=%v: c placed at %+v, want PE 6 T 2", disable, p)
		}
		if err := mapping.Validate(f.sess.M); err != nil {
			t.Fatalf("DisableCyclePruning=%v: %v", disable, err)
		}
	}
}
