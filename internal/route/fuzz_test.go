package route

import (
	"math/rand"
	"slices"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// FuzzStrictPricing checks strict pricing from the rows against
// StrictCost, its reference. The inputs pick a mesh or torus of 2-6 by
// 2-6 PEs (with 1-3 registers, from the size bytes' high bits) at II
// 1-4, a random foreign occupancy, a random route tree of the routed net
// (some routes leave another FU, whose phases do not match the
// search's) and one query. On the floor StrictFloor would build, naming
// the occupancy, a nil CostFn and StrictCost must return the same path
// and ok after the same number of pops. The seed corpus is in
// testdata/fuzz/FuzzStrictPricing.
func FuzzStrictPricing(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows, cols uint8, torus bool, ii uint8, occSeed, treeSeed int64, srcPE, srcT, dstPE, lat uint8) {
		a := arch.New("fuzz", 2+int(rows)%5, 2+int(cols)%5, 1+int(rows>>3)%3, 2, 0)
		a.Torus = torus
		g := mrrg.New(a, 1+int(ii)%4)
		maxLat := DefaultMaxLat(a.Rows, a.Cols, g.II)
		r := NewRouter(g, maxLat)

		st := mrrg.NewState(g)
		rng := rand.New(rand.NewSource(occSeed))
		for k := 0; k < g.NumNodes()/4; k++ {
			if n := mrrg.Node(rng.Intn(g.NumNodes())); g.Valid(n) && g.Kind(n) != mrrg.KindFU && st.Free(n) {
				if err := st.Reserve(n, mrrg.Net(100+rng.Intn(4)), 1+rng.Intn(maxLat)); err != nil {
					t.Fatal(err)
				}
			}
		}

		const net = mrrg.Net(1)
		src := g.FU(int(srcPE)%a.NumPEs(), int(srcT)%g.II)
		floor := Floor{Min: 1, State: st}
		var routes [][]mrrg.Node
		var edges []int
		rng = rand.New(rand.NewSource(treeSeed))
		for k, n := 0, rng.Intn(6); k < n; k++ {
			from := src
			if rng.Intn(3) == 0 {
				from = g.FU(rng.Intn(a.NumPEs()), rng.Intn(g.II))
			}
			l := 2 + rng.Intn(6)
			p, ok := r.FindPath(from, g.FU(rng.Intn(a.NumPEs()), g.Time(from)+l), l, StrictCost(st, net), Flat(1))
			if ok && st.ReservePath(p, net, 1) == nil {
				edges = append(edges, len(routes))
				routes = append(routes, p, nil) // the nil route is an unrouted edge the floor skips
			}
		}
		if len(edges) > 0 {
			floor = Floor{Min: StrictSharedCost, Routes: routes, Edges: edges, State: st}
		}

		q := 1 + int(lat)%(maxLat+1)
		dst := g.FU(int(dstPE)%a.NumPEs(), g.Time(src)+q)
		e0 := r.Expansions
		want, wantOK := r.FindPath(src, dst, q, StrictCost(st, net), floor)
		wantExp := r.Expansions - e0
		e0 = r.Expansions
		got, ok := r.FindPath(src, dst, q, nil, floor)
		if exp := r.Expansions - e0; ok != wantOK || !slices.Equal(got, want) || exp != wantExp {
			t.Fatalf("%s -> %s lat %d, %d routes:\n nil cost   ok=%v exp=%d %v\n StrictCost ok=%v exp=%d %v",
				g.String(src), g.String(dst), q, len(edges), ok, exp, got, wantOK, wantExp, want)
		}
	})
}
