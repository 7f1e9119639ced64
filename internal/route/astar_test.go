package route

import (
	"math"
	"math/rand"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// TestTorusWrapNotOverPruned is the regression test for the Manhattan
// over-prune bug: a Manhattan-distance bound ignores wrap links, so the
// old Manhattan-based feasibility prune rejected exact-latency states
// that a torus wrap link makes reachable. The oracle-based prune must
// keep them.
func TestTorusWrapNotOverPruned(t *testing.T) {
	a := arch.New("torus4x4", 4, 4, 2, 2, 0)
	a.Torus = true
	g := mrrg.New(a, 4)
	r := NewRouter(g, DefaultMaxLat(4, 4, 4))

	// Premise of the regression: PE 0 -> PE 3 is one west wrap hop, but
	// three mesh hops along row 0, so the old prune rejected lat 2.
	if r, c := a.PECoord(3); r != 0 || c != 3 {
		t.Fatal("premise broken: PE 3 is no longer three mesh hops from PE 0")
	}
	if got := r.NeedCycles(0, 3); got != 2 {
		t.Fatalf("NeedCycles(0,3) on torus = %d, want 2 (one wrap hop + FU entry)", got)
	}
	path, ok := r.FindPath(g.FU(0, 0), g.FU(3, 2), 2, freeCost, Flat(1))
	if !ok || len(path) != 1 {
		t.Fatalf("wrap-link route lost to the prune: path=%v ok=%v", path, ok)
	}
	if path[0] != g.Link(0, arch.West, 1) {
		t.Fatalf("expected the west wrap link, got %s", g.String(path[0]))
	}

	// Corner to corner: two wrap hops instead of Manhattan's six.
	if got := r.NeedCycles(0, 15); got != 3 {
		t.Fatalf("NeedCycles(0,15) on torus = %d, want 3", got)
	}
	if _, ok := r.FindPath(g.FU(0, 0), g.FU(15, 3), 3, freeCost, Flat(1)); !ok {
		t.Fatal("corner-to-corner wrap route at latency 3 not found")
	}
}

// refMinCost is an independent layered-Dijkstra reference for findOnce:
// no heuristic, no distance-oracle prune, no scratch reuse — just the
// admission rules (final hop must be the destination FU at cost 0, the
// destination FU is untouchable mid-path, CostFn gates everything else).
// It returns the minimum total path cost for the exact latency.
func refMinCost(g *mrrg.Graph, src, dst mrrg.Node, lat int, cost CostFn) (float64, bool) {
	type key struct {
		n mrrg.Node
		e int
	}
	type item struct {
		n mrrg.Node
		e int
		c float64
	}
	dist := map[key]float64{{src, 0}: 0}
	pq := []item{{src, 0, 0}}
	for len(pq) > 0 {
		mi := 0
		for i := range pq {
			if pq[i].c < pq[mi].c {
				mi = i
			}
		}
		cur := pq[mi]
		pq[mi] = pq[len(pq)-1]
		pq = pq[:len(pq)-1]
		if d, seen := dist[key{cur.n, cur.e}]; seen && cur.c > d {
			continue
		}
		if cur.n == dst && cur.e == lat {
			return cur.c, true
		}
		if cur.e >= lat {
			continue
		}
		ne := cur.e + 1
		for _, nxt := range g.Succs(cur.n) {
			step := 0.0
			if ne == lat {
				if nxt != dst {
					continue
				}
			} else {
				if nxt == dst && g.Kind(nxt) == mrrg.KindFU {
					continue
				}
				c, usable := cost(nxt, ne)
				if !usable {
					continue
				}
				step = c
			}
			nc := cur.c + step
			k := key{nxt, ne}
			if d, seen := dist[k]; seen && d <= nc {
				continue
			}
			dist[k] = nc
			pq = append(pq, item{nxt, ne, nc})
		}
	}
	return 0, false
}

func pathCost(path []mrrg.Node, cost CostFn) float64 {
	total := 0.0
	for i, n := range path {
		c, ok := cost(n, i+1)
		if !ok {
			return -1
		}
		total += c
	}
	return total
}

// refCostToGo runs the same reference backwards over the layers:
// ctg[e][n] is the minimum cost of completing a route from (n, e) to
// (dst, lat) under refMinCost's admission rules, +Inf where none exists.
// Every arc goes from layer e to e+1, so one backward sweep per layer is
// exact.
func refCostToGo(g *mrrg.Graph, dst mrrg.Node, lat int, cost CostFn) [][]float64 {
	ctg := make([][]float64, lat+1)
	for e := range ctg {
		ctg[e] = make([]float64, g.NumNodes())
		for n := range ctg[e] {
			ctg[e][n] = math.Inf(1)
		}
	}
	ctg[lat][dst] = 0
	for e := lat - 1; e >= 0; e-- {
		ne := e + 1
		for n := mrrg.Node(0); int(n) < g.NumNodes(); n++ {
			for _, m := range g.Succs(n) {
				if math.IsInf(ctg[ne][m], 1) {
					continue
				}
				step := 0.0
				if ne < lat {
					if m == dst && g.Kind(m) == mrrg.KindFU {
						continue
					}
					c, ok := cost(m, ne)
					if !ok {
						continue
					}
					step = c
				}
				ctg[e][n] = min(ctg[e][n], step+ctg[ne][m])
			}
		}
	}
	return ctg
}

// TestAStarMatchesDijkstraCosts checks the optimality claim bit for bit:
// over random fabrics (mesh and torus), random endpoints/latencies, and
// random FP-exact cost tables with unusable resources, findOnce with the
// exact floor returns paths whose total cost equals the reference
// Dijkstra minimum, and fails exactly when the reference fails. floor=0
// (pure Dijkstra ordering) must agree too.
//
// Each trial also routes a net that holds a random route tree (routes
// from src, and one from another FU whose phases do not match), with a
// PathFinder-shaped cost: 0.25 to share a held resource at its phase, 1
// or 2 for any other. With a Floor carrying those routes, the split
// search must still hit the Dijkstra minimum, and its step table must be
// admissible against the true cost-to-go of every state and consistent
// on every arc the search relaxes (into a state the oracle prune keeps).
func TestAStarMatchesDijkstraCosts(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	costs := []float64{0.25, 0.5, 1, 2} // exact binary fractions: sums are FP-exact
	splits := 0
	for trial := 0; trial < 150; trial++ {
		rows := 3 + rng.Intn(2)
		cols := 3 + rng.Intn(2)
		a := arch.New("rt", rows, cols, 1+rng.Intn(2), 2, 0)
		a.Torus = rng.Intn(2) == 0
		ii := 1 + rng.Intn(3)
		g := mrrg.New(a, ii)
		r := NewRouter(g, DefaultMaxLat(rows, cols, ii))

		// Phase-dependent random cost table; ~1/8 of lookups unusable.
		tbl := make([]uint8, g.NumNodes()*(r.MaxLat()+1))
		for i := range tbl {
			tbl[i] = uint8(rng.Intn(8))
		}
		lookup := func(n mrrg.Node, phase int) uint8 { return tbl[int(n)*(r.MaxLat()+1)+phase%(r.MaxLat()+1)] }
		cost := func(n mrrg.Node, phase int) (float64, bool) {
			v := lookup(n, phase)
			if v == 7 {
				return 0, false
			}
			return costs[v%4], true
		}

		src := g.FU(rng.Intn(a.NumPEs()), rng.Intn(ii))
		dst := g.FU(rng.Intn(a.NumPEs()), rng.Intn(ii))
		lat := 1 + rng.Intn(8)
		want, wantOK := refMinCost(g, src, dst, lat, cost)

		for _, floor := range []float64{0.25, 0} {
			ban := bumpEpoch(&r.banEpoch, r.banStamp)
			path, ok := r.findOnce(src, dst, lat, cost, r.heuristics(src, dst, lat, Flat(floor)), ban)
			if ok != wantOK {
				t.Fatalf("trial %d floor %v: found=%v, reference says %v (lat %d)", trial, floor, ok, wantOK, lat)
			}
			if !ok {
				continue
			}
			if got := pathCost(path, cost); got != want {
				t.Fatalf("trial %d floor %v: path cost %v != Dijkstra minimum %v", trial, floor, got, want)
			}
		}

		// The own-net tree, over some foreign occupancy.
		const net = mrrg.Net(1)
		st := mrrg.NewState(g)
		for n := mrrg.Node(0); int(n) < g.NumNodes(); n++ {
			if g.Valid(n) && g.Kind(n) != mrrg.KindFU && rng.Intn(6) == 0 {
				if err := st.Reserve(n, 9, 1+rng.Intn(8)); err != nil {
					t.Fatal(err)
				}
			}
		}
		floor := Floor{Min: 0.25}
		for k := 0; k < 4; k++ {
			from := src
			if k == 3 {
				from = g.FU(rng.Intn(a.NumPEs()), rng.Intn(ii))
			}
			l := 2 + rng.Intn(6)
			if p, ok := r.FindPath(from, g.FU(rng.Intn(a.NumPEs()), g.Time(from)+l), l, StrictCost(st, net), Flat(1)); ok && st.ReservePath(p, net, 1) == nil {
				floor.Routes = append(floor.Routes, p)
			}
		}
		treeCost := func(n mrrg.Node, phase int) (float64, bool) {
			ok, shared := st.Admit(n, net, phase)
			switch {
			case !ok || lookup(n, phase) == 7:
				return 0, false
			case shared:
				return 0.25, true
			}
			return 1 + float64(lookup(n, phase)%2), true
		}
		want, wantOK = refMinCost(g, src, dst, lat, treeCost)
		split := r.heuristics(src, dst, lat, floor)
		h := r.flat
		if split {
			h = r.step
			splits++
		}
		ban := bumpEpoch(&r.banEpoch, r.banStamp)
		path, ok := r.findOnce(src, dst, lat, treeCost, split, ban)
		if ok != wantOK || ok && pathCost(path, treeCost) != want {
			t.Fatalf("trial %d tree (split=%v): found=%v cost %v, reference found=%v cost %v (lat %d)",
				trial, split, ok, pathCost(path, treeCost), wantOK, want, lat)
		}
		ctg := refCostToGo(g, dst, lat, treeCost)
		if got := ctg[0][src]; wantOK && got != want || !wantOK && !math.IsInf(got, 1) {
			t.Fatalf("trial %d: references disagree: cost-to-go %v, Dijkstra %v (found=%v)", trial, got, want, wantOK)
		}
		drow := r.oracle.Row(g.PE(dst))
		for e := 0; e <= lat; e++ {
			for n := mrrg.Node(0); int(n) < g.NumNodes(); n++ {
				if h[e] > ctg[e][n] {
					t.Fatalf("trial %d (split=%v): h[%d] = %v overestimates the cost-to-go %v of %s", trial, split, e, h[e], ctg[e][n], g.String(n))
				}
				if e == lat {
					continue
				}
				ne := e + 1
				for _, m := range g.Succs(n) {
					c := 0.0
					if ne == lat {
						if m != dst {
							continue
						}
					} else {
						if m == dst && g.Kind(m) == mrrg.KindFU || ne+int(drow[g.FeedsPE(m)])+1 > lat {
							continue
						}
						var usable bool
						if c, usable = treeCost(m, ne); !usable {
							continue
						}
					}
					if h[e] > c+h[ne] {
						t.Fatalf("trial %d (split=%v): arc %s@%d -> %s@%d costs %v, but h drops %v -> %v",
							trial, split, g.String(n), e, g.String(m), ne, c, h[e], h[ne])
					}
				}
			}
		}
	}
	if splits < 20 {
		t.Fatalf("only %d of 150 trials ran the split search", splits)
	}
	t.Logf("%d of 150 trials split", splits)
}

// TestFindPathDeterministic pins the deterministic tie-break: two fresh
// routers over the same graph must return identical paths for an
// identical call sequence, and a reused router must agree with a fresh
// one (epoch-stamped scratch may not leak across calls).
func TestFindPathDeterministic(t *testing.T) {
	a := arch.New("det", 4, 4, 2, 2, 0)
	a.Torus = true
	g := mrrg.New(a, 3)
	r1 := NewRouter(g, DefaultMaxLat(4, 4, 3))
	r2 := NewRouter(g, DefaultMaxLat(4, 4, 3))
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 200; i++ {
		src := g.FU(rng.Intn(16), rng.Intn(3))
		dst := g.FU(rng.Intn(16), rng.Intn(3))
		lat := 1 + rng.Intn(8)
		p1, ok1 := r1.FindPath(src, dst, lat, freeCost, Flat(1))
		fresh := NewRouter(g, DefaultMaxLat(4, 4, 3))
		p2, ok2 := r2.FindPath(src, dst, lat, freeCost, Flat(1))
		p3, ok3 := fresh.FindPath(src, dst, lat, freeCost, Flat(1))
		if ok1 != ok2 || ok1 != ok3 {
			t.Fatalf("call %d: ok diverged: %v/%v/%v", i, ok1, ok2, ok3)
		}
		for j := range p1 {
			if p1[j] != p2[j] || p1[j] != p3[j] {
				t.Fatalf("call %d: paths diverged at hop %d", i, j)
			}
		}
	}
}
