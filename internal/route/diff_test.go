package route

import (
	"math/rand"
	"slices"
	"testing"
	"unsafe"

	"rewire/internal/arch"
	"rewire/internal/mrrg"
)

// TestFindPathMatchesDenseReference is the differential test of the
// compact search state, the exact-order queue and the own-net replay:
// over random mesh and torus fabrics at II 1-4, every FindPath call must
// return the same path and the same ok as denseRouter, the frozen
// pre-compaction router, run at the floor's Min.
//
// Flat floors cover floors 1, 0.05 and 0 (admissible or not for the
// cost in use), strict, PathFinder-style and unquantized costs over
// occupancy that includes own-net resources at matching and mismatched
// phases, and a cost that makes the cheapest path repeat a resource so
// the ban-and-retry path runs. Under strict and PathFinder-style costs
// they must also match the reference's expansions call for call. Under
// the two synthetic tables (cheapFU and unquantized) a state can be
// re-queued at a strictly lower cost that rounds to the same priority, a
// twin that the bitset queue pops once where the reference's heap pops
// it twice (queue.go); there they may pop fewer states, never more, and
// the test logs the gap.
//
// Floors carrying a net's routes (the split search and its replay) are
// checked on a second net whose holdings are exactly a random route
// tree: some routes leave the producer FU, so their phases match the
// search's, and some leave another FU, so they do not. Strict and
// PathFinder-style costs run over it, ban retries included, and the
// replay must pop fewer states in total than the reference.
func TestFindPathMatchesDenseReference(t *testing.T) {
	rng := rand.New(rand.NewSource(15))
	fabrics := 48
	if testing.Short() {
		fabrics = 12
	}
	calls, found, retries := 0, 0, 0
	var tree struct {
		calls, found, retries int
		exp, refExp           int64
	}
	var twins [2]struct{ calls, pops int64 } // cheapFU, unquantized
	for fab := 0; fab < fabrics; fab++ {
		rows, cols := 3+rng.Intn(3), 3+rng.Intn(3)
		a := arch.New("diff", rows, cols, 1+rng.Intn(3), 2, 0)
		a.Torus = rng.Intn(2) == 0
		ii := 1 + rng.Intn(4)
		g := mrrg.New(a, ii)
		maxLat := DefaultMaxLat(rows, cols, ii)
		r, ref := NewRouter(g, maxLat), newDenseRouter(g, maxLat)

		const net = mrrg.Net(1)
		srcPE, srcT := rng.Intn(a.NumPEs()), rng.Intn(ii)
		src := g.FU(srcPE, srcT)
		st := mrrg.NewState(g)
		// Own-net routes from src at matching phases: the shared-cost
		// regime of a net with committed edges.
		for k := 0; k < 3; k++ {
			lat := 2 + rng.Intn(6)
			p, ok := ref.FindPath(src, g.FU(rng.Intn(a.NumPEs()), srcT+lat), lat, StrictCost(st, net), 1)
			if ok {
				if err := st.ReservePath(p, net, 1); err != nil {
					t.Fatal(err)
				}
			}
		}
		// Own-net resources at arbitrary (mostly mismatched) phases and
		// foreign nets.
		for k := 0; k < g.NumNodes()/4; k++ {
			n := mrrg.Node(rng.Intn(g.NumNodes()))
			if !g.Valid(n) || g.Kind(n) == mrrg.KindFU || !st.Free(n) {
				continue
			}
			owner := net
			if rng.Intn(3) > 0 {
				owner = mrrg.Net(100 + rng.Intn(4))
			}
			if err := st.Reserve(n, owner, 1+rng.Intn(maxLat)); err != nil {
				t.Fatal(err)
			}
		}
		// The tree net: three routes from src and two from another FU,
		// listed among unrelated slots that Edges skips.
		const treeNet = mrrg.Net(2)
		treeFloor := Floor{Min: StrictSharedCost}
		for k := 0; k < 5; k++ {
			from := src
			if k >= 3 {
				from = g.FU(rng.Intn(a.NumPEs()), rng.Intn(ii))
			}
			lat := 2 + rng.Intn(6)
			p, ok := ref.FindPath(from, g.FU(rng.Intn(a.NumPEs()), g.Time(from)+lat), lat, StrictCost(st, treeNet), 1)
			if ok && st.ReservePath(p, treeNet, 1) == nil {
				treeFloor.Edges = append(treeFloor.Edges, len(treeFloor.Routes))
				treeFloor.Routes = append(treeFloor.Routes, p, nil)
			}
		}
		if fab%2 == 0 {
			treeFloor.Routes, treeFloor.Edges = slices.DeleteFunc(treeFloor.Routes, func(p []mrrg.Node) bool { return p == nil }), nil
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
		// FUs nearly free: the cheapest path dwells by forwarding through
		// FUs and, once it wraps the II, repeats one.
		cheapFU := func(n mrrg.Node, phase int) (float64, bool) {
			if g.Kind(n) == mrrg.KindFU {
				return 0.05, true
			}
			return 1, true
		}
		// Unquantized costs give nearly every entry its own f, so the
		// queue opens and retires levels at every depth of its list.
		spread := make([]float64, g.NumNodes())
		for i := range spread {
			spread[i] = 0.05 + 3*rng.Float64()
		}
		unquantized := func(n mrrg.Node, phase int) (float64, bool) { return spread[n], true }
		costs := []CostFn{StrictCost(st, net), pathfinder(net), cheapFU, unquantized}
		const exact = 2 // costs[exact:] may queue twins
		treeCosts := []CostFn{StrictCost(st, treeNet), pathfinder(treeNet)}

		for q := 0; q < 40; q++ {
			lat := 1 + rng.Intn(maxLat+1)
			dstT := srcT + lat
			if rng.Intn(8) == 0 {
				dstT = rng.Intn(ii) // usually the wrong arrival cycle
			}
			dst := g.FU(rng.Intn(a.NumPEs()), dstT)
			for ci, cost := range costs {
				for _, floor := range []float64{1, StrictSharedCost, 0} {
					r0, ref0, retry0 := r.Expansions, ref.Expansions, ref.retries
					got, ok := r.FindPath(src, dst, lat, cost, Flat(floor))
					want, wantOK := ref.FindPath(src, dst, lat, cost, floor)
					calls++
					retries += ref.retries - retry0
					if ok {
						found++
					}
					exp, refExp := r.Expansions-r0, ref.Expansions-ref0
					if ci >= exact && exp < refExp {
						twins[ci-exact].calls++
						twins[ci-exact].pops += refExp - exp
						refExp = exp
					}
					if ok != wantOK || !slices.Equal(got, want) || exp != refExp {
						t.Fatalf("fabric %d (%dx%d torus=%v II %d) cost %d floor %v: %s -> %s lat %d:\n got  ok=%v exp=%d %v\n want ok=%v exp=%d %v",
							fab, rows, cols, a.Torus, ii, ci, floor, g.String(src), g.String(dst), lat,
							ok, r.Expansions-r0, got, wantOK, ref.Expansions-ref0, want)
					}
				}
			}
			for ci, cost := range treeCosts {
				r0, ref0, retry0 := r.Expansions, ref.Expansions, ref.retries
				got, ok := r.FindPath(src, dst, lat, cost, treeFloor)
				want, wantOK := ref.FindPath(src, dst, lat, cost, treeFloor.Min)
				tree.calls++
				tree.retries += ref.retries - retry0
				tree.exp += r.Expansions - r0
				tree.refExp += ref.Expansions - ref0
				if ok {
					tree.found++
				}
				if ok != wantOK || !slices.Equal(got, want) {
					t.Fatalf("fabric %d (%dx%d torus=%v II %d) tree cost %d: %s -> %s lat %d:\n got  ok=%v %v\n want ok=%v %v",
						fab, rows, cols, a.Torus, ii, ci, g.String(src), g.String(dst), lat,
						ok, got, wantOK, want)
				}
			}
		}
	}
	// The comparison means little unless both outcomes and the retry
	// path were exercised.
	if found == 0 || found == calls || retries == 0 {
		t.Fatalf("weak coverage: %d calls, %d found, %d ban retries", calls, found, retries)
	}
	if tree.found == 0 || tree.found == tree.calls || tree.retries == 0 {
		t.Fatalf("weak tree coverage: %d calls, %d found, %d ban retries", tree.calls, tree.found, tree.retries)
	}
	if tree.exp >= tree.refExp {
		t.Fatalf("tree queries popped %d states, the reference %d: the replay saved nothing", tree.exp, tree.refExp)
	}
	t.Logf("%d calls, %d found, %d ban retries", calls, found, retries)
	t.Logf("twins: cheapFU %d pops fewer over %d calls, unquantized %d over %d", twins[0].pops, twins[0].calls, twins[1].pops, twins[1].calls)
	t.Logf("tree: %d calls, %d found, %d ban retries, %d pops vs %d", tree.calls, tree.found, tree.retries, tree.exp, tree.refExp)
}

// TestRouterScratchSize pins the compact layout's footprint: the search
// state of a 4x4r4 router at II 32, where a dense (node, elapsed) table
// took 5.4 MiB, must stay under 200 KiB.
func TestRouterScratchSize(t *testing.T) {
	g := mrrg.New(arch.New4x4(4), 32)
	maxLat := DefaultMaxLat(4, 4, 32)
	r := NewRouter(g, maxLat)
	got := len(r.cells) * int(unsafe.Sizeof(cell{}))
	dense := g.NumNodes() * (maxLat + 1) * 16
	if got > 200<<10 {
		t.Fatalf("router scratch is %d B at 4x4r4 II 32, want <= %d (dense layout: %d B)", got, 200<<10, dense)
	}
	t.Logf("scratch %d B, dense layout %d B", got, dense)
}

// TestRouterLevelSize pins the footprint of one queue level at 4x4r4 II
// 32: its bitset, one bit per (slot, elapsed) state plus one summary bit
// per word, must stay under 2 KiB, so that even the maxRetainedLevels
// bitsets a router may keep take less memory than its cells.
func TestRouterLevelSize(t *testing.T) {
	g := mrrg.New(arch.New4x4(4), 32)
	maxLat := DefaultMaxLat(4, 4, 32)
	r := NewRouter(g, maxLat)
	words := (maxLat + 1) * g.SlotWords()
	if r.q.size != words+(words+63)/64 {
		t.Fatalf("level bitset is %d words, want %d state words and their summary", r.q.size, words)
	}
	got := r.q.size * 8
	if got > 2<<10 {
		t.Fatalf("one queue level is %d B at 4x4r4 II 32, want <= %d", got, 2<<10)
	}
	t.Logf("level %d B, %d retained at most: %d B", got, maxRetainedLevels, maxRetainedLevels*got)
}
