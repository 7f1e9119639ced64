package core

import (
	"crypto/sha256"
	"fmt"
	"sync"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/route"
	"rewire/internal/sweep"
)

// mapDigest maps one kernel and returns a digest of everything the
// mapper decided: success, II, the effort counters, and a hash over all
// placements and routes. Two runs of the same (kernel, seed) must
// produce equal digests no matter what state the scratch pools are in.
func mapDigest(t *testing.T, kernel string, seed int64) string {
	t.Helper()
	g := kernels.MustLoad(kernel)
	a := arch.New4x4(4)
	m, res := Map(g, a, Options{RunOptions: sweep.RunOptions{Seed: seed, TimePerII: time.Hour}})
	h := sha256.New()
	if m != nil {
		for v, p := range m.Place {
			fmt.Fprintf(h, "%d:%d,%d;", v, p.PE, p.Time)
		}
		for eid, r := range m.Routes {
			fmt.Fprintf(h, "e%d:", eid)
			for _, n := range r {
				fmt.Fprintf(h, "%d,", n)
			}
		}
	}
	return fmt.Sprintf("ok=%v ii=%d amend=%d tried=%d verify=%d/%d exp=%d hash=%x",
		res.Success, res.II, res.ClusterAmendments, res.PlacementsTried,
		res.VerifySuccesses, res.VerifyAttempts, res.RouterExpansions, h.Sum(nil)[:8])
}

// TestDirtyPoolReuseDeterminism maps the same kernel before and after
// the scratch pools have been dirtied by unrelated runs. Every pooled
// buffer (amendScratch, propagations, flood scratch, MRRG state) is
// handed back full of stale data, and the candidate sort, cycle
// constraint and probe-path buffers are then poisoned outright; if any
// consumer reads a recycled value before writing it, the second digest
// diverges.
func TestDirtyPoolReuseDeterminism(t *testing.T) {
	base := mapDigest(t, "mvt", 7)
	// Dirty the pools with differently-shaped work: another kernel and
	// another seed exercise different cluster sizes, propagation tables
	// and candidate counts, leaving maximally-foreign residue behind.
	mapDigest(t, "atax", 1)
	mapDigest(t, "gesummv", 42)
	poisonScratchPool(4)
	if again := mapDigest(t, "mvt", 7); again != base {
		t.Fatalf("dirty-pool rerun diverged:\n  first: %s\n  again: %s", base, again)
	}
}

// poisonScratchPool draws n scratches from the pool, fills the
// candidate sort's staging list and counts, every depth's cycle
// constraints and the probe-path buffer with values no mapping produces,
// and puts them back: a consumer that reads one of these buffers before
// writing it sees garbage, not a plausible leftover.
func poisonScratchPool(n int) {
	var drawn []*amendScratch
	for i := 0; i < n; i++ {
		s := getAmendScratch(0)
		s.sortBuf = filled(pcand{pe: -7, T: 1 << 40}, 512)
		s.countBuf = filled(1<<30, 4096)
		s.consBufs = s.consBufs[:0]
		for d := 0; d < 32; d++ {
			s.consBufs = append(s.consBufs, filled(cycleCons{j: 1 << 20, dist: -99, in: true}, 16))
		}
		s.probePath = filled(mrrg.Node(1<<30), 512)
		drawn = append(drawn, s)
	}
	for _, s := range drawn {
		amendScratchPool.Put(s)
	}
}

// filled returns n copies of v.
func filled[T any](v T, n int) []T {
	s := make([]T, n)
	for i := range s {
		s[i] = v
	}
	return s
}

// TestConcurrentSessionsDeterministic hammers the pools from concurrent
// mapping sessions — kernels x seeds {1, 7, 42} all in flight at once —
// and requires every result to be bit-identical to its serial reference.
// Under -race this doubles as the data-race probe for the sync.Pool
// scratch sharing (CI runs this package with -race).
func TestConcurrentSessionsDeterministic(t *testing.T) {
	kernelNames := []string{"mvt", "atax"}
	seeds := []int64{1, 7, 42}

	type key struct {
		kernel string
		seed   int64
	}
	want := make(map[key]string)
	for _, k := range kernelNames {
		for _, s := range seeds {
			want[key{k, s}] = mapDigest(t, k, s)
		}
	}

	var wg sync.WaitGroup
	var mu sync.Mutex
	got := make(map[key]string)
	for _, k := range kernelNames {
		for _, s := range seeds {
			wg.Add(1)
			go func(k string, s int64) {
				defer wg.Done()
				d := mapDigest(t, k, s)
				mu.Lock()
				got[key{k, s}] = d
				mu.Unlock()
			}(k, s)
		}
	}
	wg.Wait()

	for k, w := range want {
		if got[k] != w {
			t.Errorf("%s seed=%d diverged under concurrency:\n  serial:     %s\n  concurrent: %s",
				k.kernel, k.seed, w, got[k])
		}
	}
}

// TestFloodScratchSize pins the probe flood's footprint: a forward flood
// at the largest round budget on an open 4x4r4 session at II 32, with
// its BFS tree built to the full depth, keeps one slot bitset per layer,
// one parent slot per (slot, depth) state, the first slot per (PE,
// depth) and two frontiers, and must stay under 64 KiB; a (node, depth)
// layout would take II times as much.
func TestFloodScratchSize(t *testing.T) {
	g := kernels.MustLoad("mvt")
	sess := mapping.NewSession(mapping.New(g, arch.New4x4(4), 32))
	defer sess.Close()
	if err := sess.PlaceNode(0, 0, 0); err != nil {
		t.Fatal(err)
	}
	router := route.ForSession(sess)
	am := &amender{g: g, sess: sess, router: router}
	rounds := router.MaxLat() - 1
	p := am.propagate(0, true, rounds, am.snapshot())
	if p.layers != rounds+1 {
		t.Fatalf("open fabric flood kept %d layers, want %d", p.layers, rounds+1)
	}
	p.growTree(p.layers - 1)
	got := 8*len(p.reach) + 4*(len(p.par)+len(p.first)+cap(p.front)+cap(p.next)) + 8*len(p.todo)
	dense := sess.Graph.NumNodes() * (rounds + 1) * 4
	if got > 64<<10 {
		t.Fatalf("flood scratch is %d B at 4x4r4 II 32, want <= %d (node-indexed parents: %d B)", got, 64<<10, dense)
	}
	t.Logf("scratch %d B, node-indexed parents %d B", got, dense)
}
