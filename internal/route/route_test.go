package route

import (
	"math/rand"
	"testing"
	"testing/quick"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

func freeCost(n mrrg.Node, phase int) (float64, bool) { return 1, true }

func sess(t *testing.T, g *dfg.Graph, a *arch.CGRA, ii int) (*mapping.Session, *Router) {
	t.Helper()
	s := mapping.NewSession(mapping.New(g, a, ii))
	return s, ForSession(s)
}

func pair() *dfg.Graph {
	g := dfg.New("pair")
	a := g.AddNode("a", dfg.OpAdd)
	b := g.AddNode("b", dfg.OpAdd)
	g.AddEdge(a, b, 0)
	return g
}

func TestAdjacentHopLatencyTwo(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 4)
	src := s.Graph.FU(0, 0)
	dst := s.Graph.FU(1, 2) // east neighbour, 2 cycles later
	path, ok := r.FindPath(src, dst, 2, freeCost, Flat(1))
	if !ok || len(path) != 1 {
		t.Fatalf("path=%v ok=%v", path, ok)
	}
	if path[0] != s.Graph.Link(0, arch.East, 1) {
		t.Fatalf("unexpected hop %s", s.Graph.String(path[0]))
	}
}

func TestSamePEForwardLatencyOne(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 4)
	path, ok := r.FindPath(s.Graph.FU(5, 1), s.Graph.FU(5, 2), 1, freeCost, Flat(1))
	if !ok || len(path) != 0 {
		t.Fatalf("path=%v ok=%v", path, ok)
	}
}

func TestImpossibleLatencyFails(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 4)
	// Distance-3 PE in 2 cycles: impossible.
	if _, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(3, 2), 2, freeCost, Flat(1)); ok {
		t.Fatal("found impossible path")
	}
	// Latency 0 or beyond maxLat.
	if _, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(0, 0), 0, freeCost, Flat(1)); ok {
		t.Fatal("latency 0 accepted")
	}
	if _, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(0, 1), r.MaxLat()+1, freeCost, Flat(1)); ok {
		t.Fatal("latency beyond maxLat accepted")
	}
}

func TestDwellUsesRegister(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 4)
	// Same PE, 3 cycles: must dwell 2 cycles via a register or wander.
	path, ok := r.FindPath(s.Graph.FU(2, 0), s.Graph.FU(2, 3), 3, freeCost, Flat(1))
	if !ok || len(path) != 2 {
		t.Fatalf("path=%v ok=%v", path, ok)
	}
}

func TestRoutingAroundBlockedResources(t *testing.T) {
	g := pair()
	a := arch.New4x4(2)
	s, r := sess(t, g, a, 4)
	st := s.State
	// Block the direct east link at the needed phase.
	direct := s.Graph.Link(0, arch.East, 1)
	if err := st.Reserve(direct, 99, 1); err != nil {
		t.Fatal(err)
	}
	cost := StrictCost(st, 7)
	// Latency 2 now impossible (only the east link does it in one hop).
	if _, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(1, 2), 2, cost, Flat(StrictSharedCost)); ok {
		t.Fatal("route through foreign reservation")
	}
	// Latency 3 detours (e.g. south then northeast, or reg dwell + hop).
	path, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(1, 3), 3, cost, Flat(StrictSharedCost))
	if !ok {
		t.Fatal("no detour found")
	}
	for _, n := range path {
		if n == direct {
			t.Fatal("detour used the blocked link")
		}
	}
}

func TestOwnNetSharingIsCheap(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 4)
	st := s.State
	// Pretend net 7 already routed through the east link at phase 1.
	link := s.Graph.Link(0, arch.East, 1)
	if err := st.Reserve(link, 7, 1); err != nil {
		t.Fatal(err)
	}
	path, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(1, 2), 2, StrictCost(st, 7), Flat(StrictSharedCost))
	if !ok || len(path) != 1 || path[0] != link {
		t.Fatal("same-net same-phase resource not reused")
	}
	// Same net but wrong phase is a conflict.
	st2 := mrrg.NewState(s.Graph)
	if err := st2.Reserve(link, 7, 3); err != nil {
		t.Fatal(err)
	}
	if _, ok := r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(1, 2), 2, StrictCost(st2, 7), Flat(StrictSharedCost)); ok {
		t.Fatal("cross-phase sharing allowed")
	}
}

func TestSelfEdgeWholeIILoop(t *testing.T) {
	g := dfg.New("acc")
	a := g.AddNode("acc", dfg.OpAdd)
	g.AddEdge(a, a, 1)
	s, r := sess(t, g, arch.New4x4(4), 3)
	if err := s.PlaceNode(0, 5, 0); err != nil {
		t.Fatal(err)
	}
	if err := Edge(s, r, 0); err != nil {
		t.Fatal(err)
	}
	if len(s.M.Routes[0]) != 2 {
		t.Fatalf("self-edge route length %d, want II-1=2", len(s.M.Routes[0]))
	}
	if err := mapping.Validate(s.M); err != nil {
		t.Fatal(err)
	}
}

func TestEdgeHelperRoutesAndCommits(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 2)
	if err := s.PlaceNode(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	if err := s.PlaceNode(1, 1, 2); err != nil {
		t.Fatal(err)
	}
	if err := Edge(s, r, 0); err != nil {
		t.Fatal(err)
	}
	if !s.M.Routed(0) {
		t.Fatal("edge not committed")
	}
	if err := s.CheckPath(0, s.M.Routes[0]); err == nil {
		// CheckPath on an already-routed edge still passes structurally.
		_ = err
	}
}

// Property: any path FindPath returns passes the session's structural
// validator and reserves cleanly, for random placements.
func TestPropFoundPathsAlwaysValid(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ii := 1 + rng.Intn(4)
		a := arch.New4x4(1 + rng.Intn(3))
		g := pair()
		s := mapping.NewSession(mapping.New(g, a, ii))
		r := ForSession(s)
		peA := rng.Intn(16)
		peB := rng.Intn(16)
		tA := rng.Intn(ii)
		lat := 1 + rng.Intn(r.MaxLat()-1)
		tB := tA + lat
		if peA == peB && tA%ii == tB%ii {
			return true // both endpoints on one FU slot: not placeable
		}
		if err := s.PlaceNode(0, peA, tA); err != nil {
			return false
		}
		if err := s.PlaceNode(1, peB, tB); err != nil {
			return false
		}
		path, ok := r.FindPath(s.Graph.FU(peA, tA), s.Graph.FU(peB, tB), lat, StrictCost(s.State, 0), Flat(StrictSharedCost))
		if !ok {
			return true // nothing found is fine; validity is what we check
		}
		if err := s.RouteEdge(0, path); err != nil {
			return false
		}
		return mapping.Validate(s.M) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

// Property: strict routing never returns a path overlapping foreign
// reservations.
func TestPropStrictRoutingAvoidsForeignNets(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		ii := 2 + rng.Intn(3)
		a := arch.New4x4(2)
		s := mapping.NewSession(mapping.New(pair(), a, ii))
		r := ForSession(s)
		// Scatter foreign reservations.
		for i := 0; i < 40; i++ {
			n := mrrg.Node(rng.Intn(s.Graph.NumNodes()))
			if s.Graph.Valid(n) && s.State.Free(n) {
				if err := s.State.Reserve(n, 500, rng.Intn(6)); err != nil {
					return false
				}
			}
		}
		if err := s.PlaceNode(0, rng.Intn(16), rng.Intn(ii)); err != nil {
			return true
		}
		lat := 1 + rng.Intn(6)
		if err := s.PlaceNode(1, rng.Intn(16), s.M.Place[0].Time+lat); err != nil {
			return true
		}
		path, ok := r.FindPath(
			s.Graph.FU(s.M.Place[0].PE, s.M.Place[0].Time),
			s.Graph.FU(s.M.Place[1].PE, s.M.Place[1].Time),
			lat, StrictCost(s.State, 0), Flat(StrictSharedCost))
		if !ok {
			return true
		}
		for _, n := range path {
			if occ, _ := s.State.Occupant(n); occ != mrrg.NoNet && occ != 0 {
				return false
			}
		}
		return s.RouteEdge(0, path) == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

func TestFindPathBanRetryAvoidsDuplicates(t *testing.T) {
	// A long same-PE dwell with a single register forces the search to
	// consider wandering; the router must never return a path that
	// revisits a resource.
	s, r := sess(t, pair(), arch.New4x4(1), 3)
	for lat := 1; lat <= r.MaxLat(); lat++ {
		path, ok := r.FindPath(s.Graph.FU(5, 0), s.Graph.FU(5, lat%3), lat, freeCost, Flat(1))
		if !ok {
			continue
		}
		seen := map[mrrg.Node]bool{}
		for _, n := range path {
			if seen[n] {
				t.Fatalf("lat %d: duplicate resource %s", lat, s.Graph.String(n))
			}
			seen[n] = true
		}
	}
}

func TestRouterExpansionCounter(t *testing.T) {
	s, r := sess(t, pair(), arch.New4x4(2), 3)
	before := r.Expansions
	r.FindPath(s.Graph.FU(0, 0), s.Graph.FU(15, 0), 9, freeCost, Flat(1))
	if r.Expansions <= before {
		t.Fatal("expansion counter did not advance")
	}
}

func TestDefaultMaxLatFloor(t *testing.T) {
	if DefaultMaxLat(1, 1, 1) < 8 {
		t.Fatal("max latency floor lost")
	}
	if DefaultMaxLat(8, 8, 6) < 8+8+12 {
		t.Fatal("max latency does not scale")
	}
}

// Property: a route of latency lat <= II+1 never repeats a resource, so
// FindPath may skip its duplicate check there. The searches run without
// the check, over random fabrics and a cost that makes the cheapest path
// dwell by forwarding through FUs; at lat = II+2 the same searches must
// find repeats, or the property would be vacuous.
func TestPropShortRoutesNeverRepeat(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	repeatsAbove := 0
	for trial := 0; trial < 300; trial++ {
		a := arch.New("dup", 3+rng.Intn(2), 3+rng.Intn(2), 1+rng.Intn(2), 2, 0)
		a.Torus = rng.Intn(2) == 0
		ii := 1 + rng.Intn(4)
		g := mrrg.New(a, ii)
		r := NewRouter(g, DefaultMaxLat(a.Rows, a.Cols, ii))
		cheapFU := func(n mrrg.Node, phase int) (float64, bool) {
			if g.Kind(n) == mrrg.KindFU {
				return 0.05, true
			}
			return 1, true
		}
		srcPE := rng.Intn(a.NumPEs())
		dstPE := srcPE
		if rng.Intn(2) == 0 {
			dstPE = rng.Intn(a.NumPEs())
		}
		src := g.FU(srcPE, rng.Intn(ii))
		for lat := 1; lat <= ii+2; lat++ {
			dst := g.FU(dstPE, g.Time(src)+lat)
			ban := bumpEpoch(&r.banEpoch, r.banStamp)
			path, ok := r.findOnce(src, dst, lat, cheapFU, r.heuristics(src, dst, lat, Flat(0)), ban)
			if !ok || r.firstDuplicate(path) == mrrg.Invalid {
				continue
			}
			if lat <= ii+1 {
				t.Fatalf("trial %d: II %d lat %d route %v repeats a resource", trial, ii, lat, path)
			}
			repeatsAbove++
		}
	}
	if repeatsAbove == 0 {
		t.Fatal("no route at lat II+2 repeated a resource: the check is vacuous")
	}
	t.Logf("%d routes at lat II+2 repeat a resource", repeatsAbove)
}
