package core

import (
	"math/rand"
	"runtime"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

// illAmender builds an amender over a real PF* initial mapping (the
// state Rewire amends in production) so propagateAll sees realistic
// anchor sets.
func illAmender(t *testing.T, kernel string, seed int64) *amender {
	t.Helper()
	g := kernels.MustLoad(kernel)
	a := arch.New4x4(4)
	m := mapping.New(g, a, mapping.MII(g, a))
	var eff stats.Effort
	sess, router := pathfinder.BuildInitial(m, seed, &eff)
	return &amender{
		g:      g,
		sess:   sess,
		router: router,
		rng:    rand.New(rand.NewSource(seed)),
		eff:    &eff,
		opt:    Options{}.withDefaults(),
	}
}

// serially runs f under GOMAXPROCS(1), where propagateAll floods every
// anchor on the calling goroutine: the serial reference the worker pool
// must reproduce.
func serially[T any](f func() T) T {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	return f()
}

// TestPropagateAllParallelMatchesSerial floods the same cluster with the
// worker pool and serially and demands bit-identical propagations: same
// anchor keys, same tuple sets per PE, and same extracted probe paths
// (i.e. identical parent trees where it matters). The per-flood tuple
// and dedup counts the pool sums after joining must give the serial
// flood's tallies too.
func TestPropagateAllParallelMatchesSerial(t *testing.T) {
	// This machine may have GOMAXPROCS=1, which would silently take the
	// serial path; force a real pool.
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))

	tested := 0
	for _, kernel := range []string{"atax", "fft", "gramsch"} {
		// The props map is owned by the amender's scratch (a second
		// propagateAll on one amender would recycle the first result), so
		// run serial and parallel on two identically-seeded amenders: same
		// initial mapping, same cluster rip-ups, same session state.
		amS := illAmender(t, kernel, 7)
		amP := illAmender(t, kernel, 7)
		ill := amS.sess.IllMapped()
		if len(ill) == 0 {
			continue // this initial mapping needed no amendment
		}
		tested++
		uS := amS.buildCluster(ill)
		uP := amP.buildCluster(amP.sess.IllMapped())

		serial := serially(func() map[int]*propagation { return amS.propagateAll(uS) })
		parallel := amP.propagateAll(uP)

		if amS.eff.PropagateTuples == 0 ||
			amS.eff.PropagateTuples != amP.eff.PropagateTuples || amS.eff.TuplesDeduped != amP.eff.TuplesDeduped {
			t.Fatalf("%s: tuple tallies differ: serial %d kept %d deduped, parallel %d kept %d deduped", kernel,
				amS.eff.PropagateTuples, amS.eff.TuplesDeduped, amP.eff.PropagateTuples, amP.eff.TuplesDeduped)
		}
		if len(serial) != len(parallel) {
			t.Fatalf("%s: anchor count differs: serial %d, parallel %d", kernel, len(serial), len(parallel))
		}
		for key, ps := range serial {
			pp, ok := parallel[key]
			if !ok {
				t.Fatalf("%s: anchor key %d missing from parallel result", kernel, key)
			}
			comparePropagations(t, kernel, key, ps, pp)
		}
		releaseProps(serial)
		releaseProps(parallel)
	}
	if tested == 0 {
		t.Fatal("every initial mapping was already valid; no propagation compared")
	}
}

func comparePropagations(t *testing.T, kernel string, key int, a, b *propagation) {
	t.Helper()
	if a.source != b.source || a.forward != b.forward || a.srcTime != b.srcTime || a.rounds != b.rounds {
		t.Fatalf("%s anchor %d: header differs: (%d %v %d %d) vs (%d %v %d %d)", kernel, key,
			a.source, a.forward, a.srcTime, a.rounds, b.source, b.forward, b.srcTime, b.rounds)
	}
	if a.nArrivePEs != b.nArrivePEs {
		t.Fatalf("%s anchor %d: tuple PE sets differ: %d vs %d PEs", kernel, key, a.nArrivePEs, b.nArrivePEs)
	}
	numPEs := len(a.arrive)
	if n := len(b.arrive); n > numPEs {
		numPEs = n
	}
	for pe := 0; pe < numPEs; pe++ {
		al, bl := a.cyclesAt(pe), b.cyclesAt(pe)
		if len(al) != len(bl) {
			t.Fatalf("%s anchor %d PE %d: %d vs %d tuples", kernel, key, pe, len(al), len(bl))
		}
		for i := range al {
			if al[i].cycles != bl[i].cycles {
				t.Fatalf("%s anchor %d PE %d tuple %d: cycles %d vs %d",
					kernel, key, pe, i, al[i].cycles, bl[i].cycles)
			}
			// The probe paths behind the tuples must match too: the
			// verification fast path replays them into real routes.
			pa := a.extractPath(al[i], al[i].cycles)
			pb := b.extractPath(bl[i], bl[i].cycles)
			if len(pa) != len(pb) {
				t.Fatalf("%s anchor %d PE %d tuple %d: path length %d vs %d",
					kernel, key, pe, i, len(pa), len(pb))
			}
			for j := range pa {
				if pa[j] != pb[j] {
					t.Fatalf("%s anchor %d PE %d tuple %d: path[%d] = %v vs %v",
						kernel, key, pe, i, j, pa[j], pb[j])
				}
			}
		}
	}
}

// TestReleasePropsRecycles checks the scratch lifecycle: released parent
// arrays go back to the pool and a released propagation cannot be
// extracted from again.
func TestReleasePropsRecycles(t *testing.T) {
	am := illAmender(t, "atax", 3)
	ill := am.sess.IllMapped()
	if len(ill) == 0 {
		t.Skip("initial mapping already valid; nothing to flood")
	}
	u := am.buildCluster(ill)
	props := am.propagateAll(u)
	if len(props) == 0 {
		t.Fatal("no propagations to release")
	}
	plist := make([]*propagation, 0, len(props))
	for _, p := range props {
		plist = append(plist, p)
	}
	releaseProps(props)
	if len(props) != 0 {
		t.Fatalf("releaseProps left %d entries in the map", len(props))
	}
	for _, p := range plist {
		if p.par != nil {
			t.Fatal("parent array not released")
		}
		if p.visited != nil {
			t.Fatal("visited scratch retained past the flood")
		}
	}
	// Double release must be a no-op, not a double pool put: the map is
	// already empty, so nothing can be returned to the pool twice.
	releaseProps(props)
}

// TestMapWithParallelPropagationMatchesSerial runs the full mapper both
// ways on one kernel: the end-to-end results (II, expansions, trial
// counts) must be identical since the floods are. The per-II budget is
// effectively unbounded so the work limits (AttemptsPerII,
// ClusterFailBudget) terminate the search — wall-clock cutoffs would
// make the two runs diverge on a loaded machine or under -race (see
// docs/CONCURRENCY.md).
func TestMapWithParallelPropagationMatchesSerial(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	g := kernels.MustLoad("doitgen")
	a := arch.New4x4(4)
	opt := Options{RunOptions: sweep.RunOptions{Seed: 5, TimePerII: time.Hour}}
	serial := serially(func() stats.Result { _, r := Map(g, a, opt); return r })
	_, parallel := Map(g, a, opt)
	if serial.Success != parallel.Success || serial.II != parallel.II {
		t.Fatalf("II differs: serial %+v, parallel %+v", serial, parallel)
	}
	if serial.PlacementsTried != parallel.PlacementsTried ||
		serial.RouterExpansions != parallel.RouterExpansions ||
		serial.VerifyAttempts != parallel.VerifyAttempts {
		t.Fatalf("work counters differ: serial %+v, parallel %+v", serial, parallel)
	}
}
