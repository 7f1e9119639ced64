package core

import (
	"context"
	"fmt"
	"math/rand"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/pathfinder"
	"rewire/internal/stats"
)

// illAmender builds an amender over a real PF* initial mapping (the
// state Rewire amends in production) so propagateAll sees realistic
// anchor sets.
func illAmender(t *testing.T, kernel string, a *arch.CGRA, seed int64) *amender {
	t.Helper()
	g := kernels.MustLoad(kernel)
	m := mapping.New(g, a, mapping.MII(g, a))
	var eff stats.Effort
	sess, router := pathfinder.BuildInitialTraced(context.Background(), m, seed, &eff, nil, nil)
	return &amender{
		g:      g,
		sess:   sess,
		router: router,
		rng:    rand.New(rand.NewSource(seed)),
		eff:    &eff,
		opt:    Options{}.withDefaults(),
	}
}

// floodFabrics are the fabrics of the flood tests: one with 2-word slot
// masks (4x4r1) and two wider ones (4x4r4, and 8x8r4 with 10 words).
func floodFabrics() []*arch.CGRA {
	return []*arch.CGRA{arch.New4x4(1), arch.New4x4(4), arch.New8x8(4)}
}

// compareTuples requires the flood p to carry the reference's tuples:
// equal kept and deduplicated counts, equal arrival PE count and equal
// ascending cycle lists at every PE.
func compareTuples(t *testing.T, name string, p *propagation, ref *refPropagation) {
	t.Helper()
	if p.tuples != ref.tuples || p.dedups != ref.dedups || p.nArrivePEs != ref.nArrivePEs {
		t.Fatalf("%s: tuples/dedups/PEs %d/%d/%d, reference %d/%d/%d", name,
			p.tuples, p.dedups, p.nArrivePEs, ref.tuples, ref.dedups, ref.nArrivePEs)
	}
	for q, list := range ref.arrive {
		got := p.cyclesAt(q)
		if len(got) != len(list) {
			t.Fatalf("%s PE %d: %d tuples, reference %d", name, q, len(got), len(list))
		}
		for i, ar := range list {
			if got[i] != ar.cycles {
				t.Fatalf("%s PE %d tuple %d: cycles %d, reference %d", name, q, i, got[i], ar.cycles)
			}
		}
	}
}

// refPaths extracts the reference probe path of every tuple, per PE in
// ascending cycle order.
func refPaths(ref *refPropagation) [][][]mrrg.Node {
	out := make([][][]mrrg.Node, len(ref.arrive))
	for q, list := range ref.arrive {
		for _, ar := range list {
			out[q] = append(out[q], ref.extractPath(ar, ar.cycles))
		}
	}
	return out
}

// comparePaths requires p's extracted probe path of every tuple to equal
// the reference's. Extraction order alternates deep and shallow tuples,
// so the lazy tree is grown in uneven steps and read back below its
// deepest built layer.
func comparePaths(t *testing.T, name string, p *propagation, want [][][]mrrg.Node) {
	t.Helper()
	for q, paths := range want {
		cycles := p.cyclesAt(q)
		for k := range paths {
			i := k / 2
			if k%2 == 1 {
				i = len(paths) - 1 - k/2
			}
			got := p.extractPath(nil, q, cycles[i])
			if fmt.Sprint(got) != fmt.Sprint(paths[i]) {
				t.Fatalf("%s PE %d cycles %d: path %v, reference %v", name, q, cycles[i], got, paths[i])
			}
		}
	}
}

// occupyPaths reserves every free resource of the given paths for a
// foreign net and returns a function that releases them again.
func occupyPaths(t *testing.T, st *mrrg.State, net mrrg.Net, paths [][][]mrrg.Node) func() {
	t.Helper()
	var held []mrrg.Node
	for _, perPE := range paths {
		for _, path := range perPE {
			for _, n := range path {
				if st.Free(n) {
					if err := st.Reserve(n, net, 1); err != nil {
						t.Fatal(err)
					}
					held = append(held, n)
				}
			}
		}
	}
	return func() {
		for _, n := range held {
			st.Release(n, net)
		}
	}
}

// TestFloodMatchesReference compares every flood of propagateAll over
// real amendment clusters with the occupancy-reading reference flood:
// both directions and dual-role anchors, five kernels, three seeds and
// three fabrics. Tuples are compared as flooded; the probe paths are
// extracted only after every free resource on the reference paths has
// been reserved for a foreign net, as generate reserves routes before it
// extracts, so a tree that read the live occupancy instead of the
// flood's snapshot would diverge.
func TestFloodMatchesReference(t *testing.T) {
	floods, dual, paths := 0, 0, 0
	for _, a := range floodFabrics() {
		for _, kernel := range []string{"atax", "fft", "gramsch", "mvt", "stencil2d"} {
			for _, seed := range []int64{1, 7, 42} {
				am := illAmender(t, kernel, a, seed)
				ill := am.sess.IllMapped()
				if len(ill) == 0 {
					am.sess.Close()
					continue
				}
				u := am.buildCluster(ill)
				props := am.propagateAll(u)
				rounds := am.rounds(u, am.scr.parentsBuf, am.scr.childrenBuf)
				want := map[int][][][]mrrg.Node{}
				for key, p := range props {
					name := fmt.Sprintf("%s/%s seed %d anchor key %d", a.Name, kernel, seed, key)
					ref := refFlood(am.sess, p.source, p.forward, rounds)
					compareTuples(t, name, p, ref)
					want[key] = refPaths(ref)
					floods++
					if key < 0 {
						dual++
					}
				}
				foreign := mrrg.Net(len(am.g.Nodes))
				var release []func()
				for _, w := range want {
					release = append(release, occupyPaths(t, am.sess.State, foreign, w))
				}
				for key, p := range props {
					comparePaths(t, fmt.Sprintf("%s/%s seed %d anchor key %d", a.Name, kernel, seed, key), p, want[key])
					for _, perPE := range want[key] {
						paths += len(perPE)
					}
				}
				for _, r := range release {
					r()
				}
				am.scratch().releaseProps()
				am.sess.Close()
			}
		}
	}
	if floods == 0 || dual == 0 || paths == 0 {
		t.Fatalf("compared %d floods, %d dual-role, %d paths; want all nonzero", floods, dual, paths)
	}
	t.Logf("%d floods (%d dual-role backward), %d probe paths", floods, dual, paths)
}

// TestFloodMatchesReferenceRandomOccupancy floods both directions from
// every placed node of a PF* initial mapping after a third of the free
// resources went to foreign nets at random phases, at the longest round
// budget, so that floods wrap the modulo schedule several times: forward
// probes then meet their own net's routes both at the phase a route
// holds them (usable) and at other phases (not usable).
func TestFloodMatchesReferenceRandomOccupancy(t *testing.T) {
	matched, mismatched := 0, 0
	for _, a := range floodFabrics() {
		for _, kernel := range []string{"mvt", "gramsch"} {
			am := illAmender(t, kernel, a, 3)
			st := am.sess.State
			rng := rand.New(rand.NewSource(3))
			foreign := len(am.g.Nodes)
			for n := mrrg.Node(0); int(n) < am.sess.Graph.NumNodes(); n++ {
				if st.Free(n) && rng.Intn(3) == 0 {
					if err := st.Reserve(n, mrrg.Net(foreign+rng.Intn(3)), rng.Intn(8)); err != nil {
						t.Fatal(err)
					}
				}
			}
			rounds := am.router.MaxLat() - 1
			free := am.snapshot()
			for v := range am.g.Nodes {
				if !am.sess.M.Placed(v) {
					continue
				}
				for _, forward := range []bool{true, false} {
					name := fmt.Sprintf("%s/%s node %d forward=%v", a.Name, kernel, v, forward)
					p := am.propagate(v, forward, rounds, free)
					ref := refFlood(am.sess, v, forward, rounds)
					compareTuples(t, name, p, ref)
					comparePaths(t, name, p, refPaths(ref))
					matched += ref.ownMatched
					mismatched += ref.ownMismatched
					am.scratch().props[0] = p
					am.scratch().releaseProps()
				}
			}
			am.sess.Close()
		}
	}
	if matched == 0 || mismatched == 0 {
		t.Fatalf("own-net states at the matching phase %d, at another phase %d; want both nonzero", matched, mismatched)
	}
}

// TestReleasePropsRecycles checks the scratch lifecycle: released
// propagations drop their graph and are reused by the next flood, and a
// second release is a no-op.
func TestReleasePropsRecycles(t *testing.T) {
	am := illAmender(t, "atax", arch.New4x4(4), 3)
	ill := am.sess.IllMapped()
	if len(ill) == 0 {
		t.Skip("initial mapping already valid; nothing to flood")
	}
	u := am.buildCluster(ill)
	props := am.propagateAll(u)
	if len(props) == 0 {
		t.Fatal("no propagations to release")
	}
	released := map[*propagation]bool{}
	for _, p := range props {
		released[p] = true
	}
	scr := am.scratch()
	scr.releaseProps()
	if len(props) != 0 {
		t.Fatalf("releaseProps left %d entries in the map", len(props))
	}
	for p := range released {
		if p.g != nil {
			t.Fatal("released propagation still references its graph")
		}
	}
	if len(scr.spareProps) != len(released) {
		t.Fatalf("%d spare propagations, want %d", len(scr.spareProps), len(released))
	}
	// Double release must be a no-op, not a second copy in the spares:
	// the map is already empty.
	scr.releaseProps()
	if len(scr.spareProps) != len(released) {
		t.Fatalf("second release changed the spares to %d", len(scr.spareProps))
	}
	for _, p := range am.propagateAll(u) {
		if !released[p] {
			t.Fatal("a flood took a fresh propagation while released ones were spare")
		}
	}
}

// TestWarmFloodAllocs pins a warm probe flood at zero allocations: once
// the scratch has served one round, propagateAll over the same cluster,
// with every BFS tree grown to full depth, reuses the pooled layers,
// tuple lists and trees.
func TestWarmFloodAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("allocation counts are not meaningful under the race detector")
	}
	am := illAmender(t, "gramsch", arch.New4x4(4), 7)
	ill := am.sess.IllMapped()
	if len(ill) == 0 {
		t.Fatal("initial mapping already valid; nothing to flood")
	}
	u := am.buildCluster(ill)
	run := func() {
		for _, p := range am.propagateAll(u) {
			p.growTree(p.layers - 1)
		}
	}
	run()
	if allocs := testing.AllocsPerRun(20, run); allocs != 0 {
		t.Fatalf("warm flood allocates %.1f times per round, want 0", allocs)
	}
}
