package route

import (
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"rewire/internal/adl"
	"rewire/internal/arch"
	"rewire/internal/dist"
	"rewire/internal/mrrg"
)

// TestMaskedSearchMatchesUnmasked is the differential test of the
// masked successor loop and of strict pricing from the rows. Every
// query runs twice on one router, once with the floor naming the
// occupancy its cost admits by and once without, so that only the
// CostFn filters; path, ok and Expansions must be identical. A query
// priced by StrictCost runs a third time with a nil CostFn on the floor
// that names the occupancy, which must again give the identical path,
// ok and Expansions. The first two runs must also match denseRouter, the frozen
// reference, on path and ok, and on Expansions for floors without
// routes, which the reference searches in the same order.
//
// The fabrics are meshes, tori and an ADL-described fabric at II 1-4.
// The routed net holds exactly a random route tree: some routes leave
// the source FU, so their phases match the search's, and some leave
// another FU, so they do not. Costs are strict and PathFinder-style,
// floors are the net's routes at the sharing floor and the no-routes
// floor 1, and the queries include exact-latency repeats that need ban
// retries. The cost function checks on every call that the successor it
// prices can still enter the destination FU in time, which catches a
// missing or loosened cone row, and, when the occupancy is named, that
// it admits the successor: the masks offer the CostFn nothing it
// rejects.
func TestMaskedSearchMatchesUnmasked(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	fabrics := 36
	if testing.Short() {
		fabrics = 12
	}
	parsed, err := adl.Parse("cgra adlfab\ngrid 3 x 5\nregs 3\nbanks 2\nmemcols 0 4\ntorus on\nstrip mul keep 0 7 14\n")
	if err != nil {
		t.Fatal(err)
	}
	var cov struct{ calls, found, retries, shared, mismatched, strict int }
	for fab := 0; fab < fabrics; fab++ {
		var a *arch.CGRA
		switch fab % 3 {
		case 0, 1:
			rows, cols := 3+rng.Intn(3), 3+rng.Intn(3)
			a = arch.New("mask", rows, cols, 1+rng.Intn(3), 2, 0)
			a.Torus = fab%3 == 1
		default:
			a = parsed
		}
		ii := 1 + rng.Intn(4)
		g := mrrg.New(a, ii)
		maxLat := DefaultMaxLat(a.Rows, a.Cols, ii)
		r, ref := NewRouter(g, maxLat), newDenseRouter(g, maxLat)
		name := fmt.Sprintf("fabric %d (%dx%d torus=%v II %d)", fab, a.Rows, a.Cols, a.Torus, ii)

		st := mrrg.NewState(g)
		for k := 0; k < g.NumNodes()/5; k++ {
			if n := mrrg.Node(rng.Intn(g.NumNodes())); g.Valid(n) && g.Kind(n) != mrrg.KindFU && st.Free(n) {
				if err := st.Reserve(n, mrrg.Net(100+rng.Intn(4)), 1+rng.Intn(maxLat)); err != nil {
					t.Fatal(err)
				}
			}
		}
		const net = mrrg.Net(1)
		srcPE, srcT := rng.Intn(a.NumPEs()), rng.Intn(ii)
		src := g.FU(srcPE, srcT)
		tree := Floor{Min: StrictSharedCost}
		for k := 0; k < 6; k++ {
			from := src
			if k >= 4 {
				from = g.FU(rng.Intn(a.NumPEs()), rng.Intn(ii))
			}
			lat := 2 + rng.Intn(6)
			p, ok := ref.FindPath(from, g.FU(rng.Intn(a.NumPEs()), g.Time(from)+lat), lat, StrictCost(st, net), 1)
			if ok && st.ReservePath(p, net, 1) == nil {
				if from != src {
					cov.mismatched++
				}
				tree.Edges = append(tree.Edges, len(tree.Routes))
				tree.Routes = append(tree.Routes, p, nil)
			}
		}
		if fab%2 == 0 {
			tree.Routes, tree.Edges = slices.DeleteFunc(tree.Routes, func(p []mrrg.Node) bool { return p == nil }), nil
		}
		hist := make([]float64, g.NumNodes())
		for i := range hist {
			hist[i] = 0.5 * float64(rng.Intn(5))
		}
		pathfinder := func(net mrrg.Net) CostFn {
			return func(n mrrg.Node, phase int) (float64, bool) {
				ok, shared := st.Admit(n, net, phase)
				if !ok {
					return 0, false
				}
				if shared {
					return 0.05, true
				}
				return 1 + hist[n], true
			}
		}
		// The empty net 2 holds nothing, so its floor is Min 1.
		cases := []struct {
			cost   CostFn
			floor  Floor
			net    mrrg.Net
			strict bool
		}{
			{StrictCost(st, net), tree, net, true},
			{pathfinder(net), tree, net, false},
			{StrictCost(st, 2), Flat(1), 2, true},
			{pathfinder(2), Flat(1), 2, false},
		}

		for q := 0; q < 30; q++ {
			lat := 1 + rng.Intn(maxLat+1)
			dstT := srcT + lat
			if rng.Intn(8) == 0 {
				dstT = rng.Intn(ii) // usually the wrong arrival cycle
			}
			dst := g.FU(rng.Intn(a.NumPEs()), dstT)
			drow := r.oracle.Row(g.PE(dst))
			for ci, c := range cases {
				masked := false
				cost := func(n mrrg.Node, phase int) (float64, bool) {
					if phase+int(drow[g.FeedsPE(n)])+1 > lat {
						t.Fatalf("%s case %d: %s -> %s lat %d: priced %s at phase %d, outside the cone",
							name, ci, g.String(src), g.String(dst), lat, g.String(n), phase)
					}
					v, ok := c.cost(n, phase)
					if masked {
						if !ok {
							t.Fatalf("%s case %d: %s -> %s lat %d: the masks offered %s at phase %d, which the cost rejects",
								name, ci, g.String(src), g.String(dst), lat, g.String(n), phase)
						}
						if _, shared := st.Admit(n, c.net, phase); shared {
							cov.shared++
						}
					}
					return v, ok
				}
				e0 := r.Expansions
				want, wantOK := r.FindPath(src, dst, lat, cost, c.floor)
				wantExp := r.Expansions - e0

				occ := c.floor
				occ.State = st
				masked = true
				e0 = r.Expansions
				got, ok := r.FindPath(src, dst, lat, cost, occ)
				exp := r.Expansions - e0
				masked = false
				if ok != wantOK || !slices.Equal(got, want) || exp != wantExp {
					t.Fatalf("%s case %d: %s -> %s lat %d:\n masked   ok=%v exp=%d %v\n unmasked ok=%v exp=%d %v",
						name, ci, g.String(src), g.String(dst), lat, ok, exp, got, wantOK, wantExp, want)
				}
				if c.strict {
					e0 = r.Expansions
					rows, rowsOK := r.FindPath(src, dst, lat, nil, occ)
					cov.strict++
					if rowsOK != ok || !slices.Equal(rows, got) || r.Expansions-e0 != exp {
						t.Fatalf("%s case %d: %s -> %s lat %d:\n nil cost   ok=%v exp=%d %v\n StrictCost ok=%v exp=%d %v",
							name, ci, g.String(src), g.String(dst), lat, rowsOK, r.Expansions-e0, rows, ok, exp, got)
					}
				}

				e0, r0 := ref.Expansions, ref.retries
				refPath, refOK := ref.FindPath(src, dst, lat, c.cost, c.floor.Min)
				cov.calls++
				cov.retries += ref.retries - r0
				if ok {
					cov.found++
				}
				if refOK != ok || !slices.Equal(refPath, got) || (c.floor.Routes == nil && ref.Expansions-e0 != exp) {
					t.Fatalf("%s case %d: %s -> %s lat %d:\n router    ok=%v exp=%d %v\n reference ok=%v exp=%d %v",
						name, ci, g.String(src), g.String(dst), lat, ok, exp, got, refOK, ref.Expansions-e0, refPath)
				}
			}
		}
	}
	// The comparison means little unless both outcomes, the ban retries,
	// own-net sharing and mismatched routes were all exercised.
	if cov.found == 0 || cov.found == cov.calls || cov.retries == 0 || cov.shared == 0 || cov.mismatched == 0 {
		t.Fatalf("weak coverage: %d calls, %d found, %d ban retries, %d shared successors, %d mismatched routes",
			cov.calls, cov.found, cov.retries, cov.shared, cov.mismatched)
	}
	t.Logf("%d calls (%d also priced from the rows), %d found, %d ban retries, %d shared successors, %d mismatched routes",
		cov.calls, cov.strict, cov.found, cov.retries, cov.shared, cov.mismatched)
}

// TestNilCostNeedsState checks that strict pricing from the rows refuses
// a floor that names no occupancy to take them from.
func TestNilCostNeedsState(t *testing.T) {
	g := mrrg.New(arch.New4x4(2), 2)
	r := NewRouter(g, DefaultMaxLat(4, 4, 2))
	defer func() {
		if recover() == nil {
			t.Fatal("FindPath with a nil CostFn and no floor State did not panic")
		}
	}()
	r.FindPath(g.FU(0, 0), g.FU(1, 1), 1, nil, Flat(1))
}

// TestConeRowsMatchOracle checks the graph's cone rows against the
// distance oracle the rest of the router prunes by: on meshes, tori and
// an ADL fabric, slot b is in row d of destination q iff FeedsPE(b) is
// at most d hops from q, for every d up to past the last row. On the
// largest fabric a name allows, only the last destination is checked.
func TestConeRowsMatchOracle(t *testing.T) {
	torus := arch.New("torus", 4, 5, 2, 2, 0)
	torus.Torus = true
	parsed, err := adl.Parse("cgra adlfab\ngrid 3 x 5\nregs 3\nbanks 2\nmemcols 0 4\ntorus on\n")
	if err != nil {
		t.Fatal(err)
	}
	huge, err := arch.ParseName("32x32r16")
	if err != nil {
		t.Fatal(err)
	}
	for _, a := range append(arch.Presets(), torus, parsed, huge) {
		g := mrrg.New(a, 1)
		oracle := dist.For(g)
		w, feeds := g.SlotWords(), g.SlotPEs(true)
		for q := 0; q < a.NumPEs(); q++ {
			if a == huge && q < a.NumPEs()-1 {
				continue
			}
			cone := g.ConeRows(q, oracle.Row(q))
			last := len(cone)/w - 1
			for d := 0; d <= last+2; d++ {
				row := cone[min(d, last)*w:]
				for b, p := range feeds {
					want := p >= 0 && oracle.Hops(int(p), q) <= d
					if got := row[b>>6]&(1<<(b&63)) != 0; got != want {
						t.Fatalf("%s: destination %d, distance %d, slot %d: in cone %v, oracle says %v", a.Name, q, d, b, got, want)
					}
				}
			}
		}
	}
}
