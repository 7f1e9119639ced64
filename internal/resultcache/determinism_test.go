package resultcache_test

import (
	"context"
	"fmt"
	"reflect"
	"sync"
	"testing"
	"time"

	"rewire"
	"rewire/internal/kernels"
)

// detBudget mirrors internal/sweep's determinism tests: the per-II
// wall clock must never bind (the mappers' own work bounds terminate
// these kernels quickly), because a binding budget would make results
// timing-dependent. An hour absorbs the race detector's ~20x slowdown.
const detBudget = time.Hour

// TestCachedMappingDeterminism is the race-CI contract of the result
// cache: under concurrent identical and near-identical requests,
// exactly one compile runs per unique fingerprint, and every caller —
// cache hit, singleflight waiter, or leader — receives a mapping
// bit-identical to a cache-disabled run of the same request.
func TestCachedMappingDeterminism(t *testing.T) {
	type request struct {
		kernel string
		seed   int64
	}
	var reqs []request
	for _, kernel := range []string{"mvt", "atax"} {
		for _, seed := range []int64{1, 7, 42} {
			reqs = append(reqs, request{kernel, seed})
		}
	}
	const callersPerReq = 3

	cache := rewire.NewResultCache(0)
	cgra := rewire.New4x4(4)
	opts := func(seed int64, c *rewire.ResultCache) rewire.Options {
		return rewire.Options{Seed: seed, TimePerII: detBudget, Cache: c}
	}

	type answer struct {
		m   *rewire.Mapping
		res rewire.Result
	}
	got := make([]answer, len(reqs)*callersPerReq)
	var wg sync.WaitGroup
	for i, rq := range reqs {
		for j := 0; j < callersPerReq; j++ {
			wg.Add(1)
			go func(slot int, rq request) {
				defer wg.Done()
				// Fresh graph per caller: identity must come from content
				// fingerprints, never pointer equality.
				g := kernels.MustLoad(rq.kernel)
				m, res, _, err := rewire.MapCached(context.Background(), g, cgra, opts(rq.seed, cache))
				if err != nil {
					t.Errorf("%s seed %d: %v", rq.kernel, rq.seed, err)
					return
				}
				got[slot] = answer{m, res}
			}(i*callersPerReq+j, rq)
		}
	}
	wg.Wait()
	if t.Failed() {
		t.FailNow()
	}

	st := cache.Stats()
	if st.Misses != int64(len(reqs)) {
		t.Errorf("compiles (misses) = %d, want exactly %d (one per unique fingerprint)",
			st.Misses, len(reqs))
	}
	wantServed := int64(len(reqs) * (callersPerReq - 1))
	if st.Hits+st.SingleflightShared != wantServed {
		t.Errorf("hits+shared = %d+%d, want %d callers served without compiling",
			st.Hits, st.SingleflightShared, wantServed)
	}

	for i, rq := range reqs {
		rq := rq
		t.Run(fmt.Sprintf("%s/seed%d", rq.kernel, rq.seed), func(t *testing.T) {
			// Cache-disabled baseline of the same request.
			g := kernels.MustLoad(rq.kernel)
			base, baseRes, err := rewire.Map(g, cgra, opts(rq.seed, nil))
			if err != nil {
				t.Fatalf("baseline: %v", err)
			}
			for j := 0; j < callersPerReq; j++ {
				a := got[i*callersPerReq+j]
				if a.m == nil {
					t.Fatalf("caller %d got no mapping", j)
				}
				if a.res.II != baseRes.II || a.m.II != base.II {
					t.Fatalf("caller %d II = %d (res %d), baseline %d (res %d)",
						j, a.m.II, a.res.II, base.II, baseRes.II)
				}
				if !reflect.DeepEqual(a.m.Place, base.Place) {
					t.Fatalf("caller %d placements differ from cache-disabled run", j)
				}
				if !reflect.DeepEqual(a.m.Routes, base.Routes) {
					t.Fatalf("caller %d routes differ from cache-disabled run", j)
				}
				if !reflect.DeepEqual(a.m.BankPorts, base.BankPorts) {
					t.Fatalf("caller %d bank ports differ from cache-disabled run", j)
				}
			}
			// Near-identical request (different seed) must not collide
			// with any cached entry: same kernel, unseen seed, fresh cache
			// stats would be a miss. Checking via the key is cheap and
			// deterministic.
			k1, err1 := rewire.CacheKey(g, cgra, opts(rq.seed, nil))
			k2, err2 := rewire.CacheKey(g, cgra, opts(rq.seed+1000, nil))
			if err1 != nil || err2 != nil {
				t.Fatal(err1, err2)
			}
			if k1 == k2 {
				t.Fatal("near-identical requests (seed +1000) share a fingerprint")
			}
		})
	}
}
