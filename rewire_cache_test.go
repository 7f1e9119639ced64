package rewire

import (
	"context"
	"reflect"
	"testing"
	"time"
)

// TestOptionsFingerprintHonesty keeps the cache key honest by
// construction: every field of Options must be explicitly classified
// in optionFingerprintClass as fingerprint-relevant or exempt. Adding
// a field without deciding whether it can change the committed mapping
// fails here, not as a silent wrong-hit in production.
func TestOptionsFingerprintHonesty(t *testing.T) {
	typ := reflect.TypeOf(Options{})
	seen := make(map[string]bool, typ.NumField())
	for i := 0; i < typ.NumField(); i++ {
		name := typ.Field(i).Name
		seen[name] = true
		if _, ok := optionFingerprintClass[name]; !ok {
			t.Errorf("Options.%s is not classified in optionFingerprintClass: "+
				"decide whether it can change the committed mapping (true) or is "+
				"wall-clock/observer-only (false), and prove it with a test", name)
		}
	}
	for name := range optionFingerprintClass {
		if !seen[name] {
			t.Errorf("optionFingerprintClass lists %q, which is not a field of Options", name)
		}
	}

	// Cross-check the classification against the key itself: flipping a
	// fingerprint-relevant field must move CacheKey; flipping an exempt
	// field must not.
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	base := Options{Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 16}
	baseKey := CacheKey(g, cgra, base)

	variants := map[string]Options{
		"Mapper":           {Mapper: MapperSA, Seed: 1, TimePerII: time.Second, MaxII: 16},
		"Seed":             {Mapper: MapperRewire, Seed: 2, TimePerII: time.Second, MaxII: 16},
		"TimePerII":        {Mapper: MapperRewire, Seed: 1, TimePerII: 2 * time.Second, MaxII: 16},
		"MaxII":            {Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 8},
		"SweepParallelism": {Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 16, SweepParallelism: 4},
		"Tracer":           {Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 16, Tracer: NewTracer()},
		"Cache":            {Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 16, Cache: NewResultCache(1)},
		"Diag":             {Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 16, Diag: NewDiagCollector()},
		"Progress":         {Mapper: MapperRewire, Seed: 1, TimePerII: time.Second, MaxII: 16, Progress: NewProgressBus(0)},
	}
	for field, relevant := range optionFingerprintClass {
		opt, ok := variants[field]
		if !ok {
			switch field {
			case "Logger":
				continue // needs a writer; observer-exemption is covered by Tracer
			case "PortfolioBackends", "PortfolioParallelism":
				continue // only meaningful under MapperPortfolio; checked below
			}
			t.Errorf("no variant exercises Options.%s; add one", field)
			continue
		}
		moved := CacheKey(g, cgra, opt) != baseKey
		if relevant && !moved {
			t.Errorf("Options.%s is classified fingerprint-relevant but does not change CacheKey", field)
		}
		if !relevant && moved {
			t.Errorf("Options.%s is classified exempt but changes CacheKey", field)
		}
	}

	// The portfolio fields key against a portfolio base: the backend
	// subset exists only under MapperPortfolio.
	pbase := Options{Mapper: MapperPortfolio, Seed: 1, TimePerII: time.Second, MaxII: 16}
	pbaseKey := CacheKey(g, cgra, pbase)
	if pbaseKey == baseKey {
		t.Error("portfolio requests must not share keys with single-mapper requests")
	}
	psub := pbase
	psub.PortfolioBackends = []string{"rewire", "sa"}
	if CacheKey(g, cgra, psub) == pbaseKey {
		t.Error("Options.PortfolioBackends is classified fingerprint-relevant but does not change CacheKey")
	}
	palias := pbase
	palias.PortfolioBackends = []string{"sa", "PF*", "Rewire"} // the full set, spelled badly
	if CacheKey(g, cgra, palias) != pbaseKey {
		t.Error("equivalent PortfolioBackends spellings must share a cache key")
	}
	pj := pbase
	pj.PortfolioParallelism = 8
	if CacheKey(g, cgra, pj) != pbaseKey {
		t.Error("Options.PortfolioParallelism is classified exempt but changes CacheKey")
	}
}

// TestMapCachedOutcomes drives the public MapCached API through the
// miss → hit cycle and checks hits are isolated caller-owned copies.
func TestMapCachedOutcomes(t *testing.T) {
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	opt := Options{Seed: 1, TimePerII: 2 * time.Second, Cache: NewResultCache(8)}

	m1, res1, out1, err := MapCached(context.Background(), g, cgra, opt)
	if err != nil {
		t.Fatal(err)
	}
	if out1.Hit || out1.Shared {
		t.Fatalf("first call outcome = %+v, want a cold compile", out1)
	}
	m2, res2, out2, err := MapCached(context.Background(), g, cgra, opt)
	if err != nil {
		t.Fatal(err)
	}
	if !out2.Hit || out2.Shared {
		t.Fatalf("second call outcome = %+v, want a stored-entry hit", out2)
	}
	if res1.II != res2.II || !reflect.DeepEqual(m1.Place, m2.Place) ||
		!reflect.DeepEqual(m1.Routes, m2.Routes) {
		t.Fatal("hit differs from the compile that populated it")
	}
	if m1 == m2 {
		t.Fatal("hit returned the same *Mapping as the compile")
	}
	// A hit is caller-owned: mutating it must not corrupt later hits.
	m2.Place[0].PE = 99
	m3, _, _, err := MapCached(context.Background(), g, cgra, opt)
	if err != nil {
		t.Fatal(err)
	}
	if m3.Place[0].PE == 99 {
		t.Fatal("mutating a hit leaked into the cache")
	}
	if err := Validate(m3); err != nil {
		t.Fatalf("cached mapping fails validation: %v", err)
	}
	if st := opt.Cache.Stats(); st.Misses != 1 || st.Hits != 2 {
		t.Fatalf("stats = %+v, want 1 miss and 2 hits", st)
	}
}

// TestUnsetBudgetsKeyAsDefaults checks that a request which leaves the
// budgets unset and one that spells the driver's defaults out share a
// cache key, single mapper and portfolio alike. rewire-serve's
// TestLedgerFingerprintsMatchEval checks the same identity across the
// eval harness and the daemon's ledger records.
func TestUnsetBudgetsKeyAsDefaults(t *testing.T) {
	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	for _, m := range []MapperName{"", MapperPortfolio} {
		unset := Options{Mapper: m, Seed: 3}
		explicit := Options{Mapper: m, Seed: 3, TimePerII: 10 * time.Second, MaxII: 32}
		if CacheKey(g, cgra, unset) != CacheKey(g, cgra, explicit) {
			t.Errorf("mapper %q: unset budgets and the explicit defaults key differently", m)
		}
	}
}
