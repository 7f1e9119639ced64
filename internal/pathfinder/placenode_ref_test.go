package pathfinder

import (
	"math/rand"
	"slices"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/stats"
)

// placeNodeRef is a frozen copy of placeNode as it stood before the
// candidate bound: with beam 0 every candidate is trial-routed and the
// minimal-cost full route wins. It is the reference of
// TestPlaceNodeMatchesUnbounded. After every full route it also checks
// the property the bound rests on: fullCost, computed from the
// placement alone, equals the routed cost. Do not optimise it.
func (p *perII) placeNodeRef(t *testing.T, v int, beam int) bool {
	t.Helper()
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
		if p.pace.Expired() {
			break
		}
		p.eff.PlacementsTried++
		if err := p.sess.PlaceNode(v, c.pl.PE, c.pl.Time); err != nil {
			continue
		}
		routed, total := p.routeIncident(v)
		if routed == total {
			if got, want := p.fullCost(v, c.pl), p.routeCost(v); got != want {
				t.Fatalf("node %d at %+v: fullCost %d, routed cost %d", v, c.pl, got, want)
			}
			if !exhaustive {
				return true
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

// randomAccumGraph is a random DFG with a few distance-1 self edges
// (accumulators), which appear in both of a node's edge lists.
func randomAccumGraph(rng *rand.Rand) *dfg.Graph {
	g := dfg.Random(rng, dfg.RandomConfig{
		Nodes: 6 + rng.Intn(10), EdgeProb: 0.25, MemFrac: 0.2, RecurProb: 0.2, MaxFanIn: 2,
	})
	for v := 0; v < g.NumNodes(); v++ {
		if rng.Float64() < 0.2 {
			g.AddEdge(v, v, 1)
		}
	}
	return g
}

// drive runs PF*'s initial placement and then up to remaps remap
// iterations on every side in lockstep, placing on side i with place[i].
// The sides must stay in step — the same ill set and the same random
// pick — and after is called once every side has placed v.
func drive(t *testing.T, sides []*perII, place []func(p *perII, v int) bool, remaps int, after func(v int, oks []bool)) {
	t.Helper()
	oks := make([]bool, len(sides))
	order, err := sides[0].g.TopoOrder()
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range order {
		for i, p := range sides {
			oks[i] = place[i](p, v)
		}
		after(v, oks)
	}
	for remap := 0; remap < remaps; remap++ {
		ill := sides[0].sess.IllMapped()
		if len(ill) == 0 {
			return
		}
		v := ill[sides[0].rng.Intn(len(ill))]
		for i, p := range sides[1:] {
			illI := p.sess.IllMapped()
			if !slices.Equal(illI, ill) {
				t.Fatalf("remap %d: side %d ill set %v, side 0 %v", remap, i+1, illI, ill)
			}
			if vi := illI[p.rng.Intn(len(illI))]; vi != v {
				t.Fatalf("remap %d: side %d picked %d, side 0 %d", remap, i+1, vi, v)
			}
		}
		for i, p := range sides {
			p.ripWithHistory(v)
			if oks[i] = place[i](p, v); !oks[i] {
				p.evictRandom(v)
			}
		}
		after(v, oks)
	}
}

// TestPlaceNodeMatchesUnbounded runs placeNode and placeNodeRef side by
// side on identically seeded PF* attempts over random DFGs, fabrics,
// IIs and seeds. After every placement the two must agree on the
// outcome, every placement and route, and PlacementsTried; the bounded
// side may only spend fewer router expansions.
func TestPlaceNodeMatchesUnbounded(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	fabrics := []*arch.CGRA{arch.New4x4(1), arch.New4x4(2), arch.New4x4(4)}
	bounded := func(p *perII, v int) bool { return p.placeNode(v, 0) }
	ref := func(p *perII, v int) bool { return p.placeNodeRef(t, v, 0) }
	const trials = 40
	var calls, fewer int
	var expB, expR int64
	for trial := 0; trial < trials; trial++ {
		g := randomAccumGraph(rng)
		a := fabrics[trial%len(fabrics)]
		ii := mapping.MII(g, a) + rng.Intn(3)
		seed := rng.Int63()
		b := newPerII(g, a, ii, rand.New(rand.NewSource(seed)), &stats.Effort{})
		r := newPerII(g, a, ii, rand.New(rand.NewSource(seed)), &stats.Effort{})
		drive(t, []*perII{b, r}, []func(*perII, int) bool{bounded, ref}, 20*g.NumNodes(), func(v int, oks []bool) {
			t.Helper()
			calls++
			if oks[0] != oks[1] {
				t.Fatalf("trial %d node %d: placed %v, reference %v", trial, v, oks[0], oks[1])
			}
			if !slices.Equal(b.sess.M.Place, r.sess.M.Place) {
				t.Fatalf("trial %d node %d: placements diverged:\n  got  %v\n  want %v", trial, v, b.sess.M.Place, r.sess.M.Place)
			}
			for e := range r.sess.M.Routes {
				if !slices.Equal(b.sess.M.Routes[e], r.sess.M.Routes[e]) {
					t.Fatalf("trial %d node %d: edge %d route %v, reference %v", trial, v, e, b.sess.M.Routes[e], r.sess.M.Routes[e])
				}
			}
			if b.eff.PlacementsTried != r.eff.PlacementsTried {
				t.Fatalf("trial %d node %d: PlacementsTried %d, reference %d", trial, v, b.eff.PlacementsTried, r.eff.PlacementsTried)
			}
			if b.router.Expansions > r.router.Expansions {
				t.Fatalf("trial %d node %d: %d expansions, reference %d", trial, v, b.router.Expansions, r.router.Expansions)
			}
		})
		if b.router.Expansions < r.router.Expansions {
			fewer++
		}
		expB += b.router.Expansions
		expR += r.router.Expansions
		b.sess.Close()
		r.sess.Close()
	}
	// The bound must actually bite, or the comparison proves nothing.
	if fewer == 0 {
		t.Fatal("the bound never skipped a trial route")
	}
	t.Logf("%d placements compared; bounded side cheaper on %d of %d attempts (%d vs %d expansions)", calls, fewer, trials, expB, expR)
}

// TestFullCostMatchesRouteCost is the property the bound rests on:
// whenever a candidate routes fully, fullCost — computed from the
// placement alone — equals routeCost. placeNodeRef asserts it on every
// full route; this drives it over kernels with accumulator self edges,
// which both functions must count once per edge list.
func TestFullCostMatchesRouteCost(t *testing.T) {
	a := arch.New4x4(4)
	ref := func(p *perII, v int) bool { return p.placeNodeRef(t, v, 0) }
	for _, k := range []string{"atax", "gesummv", "mvt"} {
		g := kernels.MustLoad(k)
		for seed := int64(1); seed <= 3; seed++ {
			p := newPerII(g, a, mapping.MII(g, a), rand.New(rand.NewSource(seed)), &stats.Effort{})
			drive(t, []*perII{p}, []func(*perII, int) bool{ref}, 5*g.NumNodes(), func(int, []bool) {})
			p.sess.Close()
		}
	}
}
