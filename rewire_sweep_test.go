package rewire

import (
	"crypto/sha256"
	"fmt"
	"reflect"
	"runtime"
	"testing"
	"time"
)

// mappingDigest hashes what a mapping decided: placements, routes and
// bank ports, the same hash internal/sweep's golden file pins.
func mappingDigest(m *Mapping) string {
	if m == nil {
		return ""
	}
	h := sha256.New()
	for v, p := range m.Place {
		fmt.Fprintf(h, "p%d:%d,%d;", v, p.PE, p.Time)
	}
	for e, r := range m.Routes {
		fmt.Fprintf(h, "e%d:%v;", e, r)
	}
	fmt.Fprintf(h, "b%v", m.BankPorts)
	return fmt.Sprintf("%x", h.Sum(nil))
}

// iiStarts maps g with opt plus a progress bus and returns the mapping,
// the result and how many II attempts the sweep launched.
func iiStarts(t *testing.T, g *DFG, cgra *CGRA, opt Options) (*Mapping, Result, int) {
	t.Helper()
	bus := NewProgressBus(1 << 16)
	opt.Progress = bus
	m, res, _ := Map(g, cgra, opt)
	bus.Close()
	if _, dropped := bus.Stats(); dropped != 0 {
		t.Fatalf("progress bus dropped %d events; raise its capacity", dropped)
	}
	n := 0
	for _, e := range bus.Events() {
		if e.Type == "ii_start" {
			n++
		}
	}
	return m, res, n
}

// TestDefaultSweepMatchesSerial: the default sweep window (one II
// attempt per core) commits what the serial sweep commits — success,
// II, mapping and every effort field of the Result — for each single
// mapper, a successful sweep and one that fails every II. The budget
// never binds, so the mappers' work bounds decide each II. At least two
// cores are forced so the default really speculates, which the launched
// attempt count confirms.
func TestDefaultSweepMatchesSerial(t *testing.T) {
	if runtime.GOMAXPROCS(0) < 2 {
		prev := runtime.GOMAXPROCS(2)
		t.Cleanup(func() { runtime.GOMAXPROCS(prev) })
	}
	type sweepCase struct {
		mapper MapperName
		kernel string
		seed   int64
		maxII  int
	}
	var cases []sweepCase
	for _, m := range []MapperName{MapperRewire, MapperPathFinder, MapperSA} {
		for _, k := range []string{"mvt", "atax"} {
			for _, seed := range []int64{1, 7} {
				cases = append(cases, sweepCase{m, k, seed, 0})
			}
		}
	}
	// Every II up to 10 fails, so the ordered failed-II results are all
	// that is compared.
	cases = append(cases, sweepCase{MapperRewire, "crc", 1, 10})

	cgra := New4x4(4)
	for _, c := range cases {
		t.Run(fmt.Sprintf("%s/%s/seed%d/maxii%d", c.mapper, c.kernel, c.seed, c.maxII), func(t *testing.T) {
			t.Parallel()
			g, err := LoadKernel(c.kernel)
			if err != nil {
				t.Fatal(err)
			}
			opt := Options{Mapper: c.mapper, Seed: c.seed, TimePerII: time.Hour, MaxII: c.maxII}
			dm, dres, dn := iiStarts(t, g, cgra, opt)
			opt.SweepParallelism = 1
			sm, sres, sn := iiStarts(t, g, cgra, opt)

			if c.maxII != 0 && dres.Success {
				t.Fatalf("%s mapped at II %d; the case must fail every II up to %d", c.kernel, dres.II, c.maxII)
			}
			if dres.Success != sres.Success || dres.II != sres.II {
				t.Fatalf("default: success %v II %d; serial: success %v II %d",
					dres.Success, dres.II, sres.Success, sres.II)
			}
			if d, s := mappingDigest(dm), mappingDigest(sm); d != s {
				t.Fatalf("mapping digest: default %s, serial %s", d, s)
			}
			dres.Duration, sres.Duration = 0, 0
			if !reflect.DeepEqual(dres, sres) {
				t.Fatalf("result differs:\ndefault %+v\n serial %+v", dres, sres)
			}
			// The default window launches its first two IIs before any
			// result is in, and never fewer attempts than the serial sweep.
			if dn < max(sn, 2) {
				t.Fatalf("default launched %d II attempts, serial %d; want at least %d", dn, sn, max(sn, 2))
			}
		})
	}
}

// TestDefaultSweepWidth pins how an unset SweepParallelism resolves:
// to one II attempt per core, so on one core the default launches no
// speculative attempt; to the serial sweep on a traced run, so the
// tracer's counters count only committed work; an explicit width
// passes through either way.
func TestDefaultSweepWidth(t *testing.T) {
	prev := runtime.GOMAXPROCS(1)
	t.Cleanup(func() { runtime.GOMAXPROCS(prev) })

	for _, c := range []struct {
		procs int
		opt   Options
		want  int
	}{
		{1, Options{}, 1},
		{3, Options{}, 3},
		{3, Options{Tracer: NewTracer()}, 0},
		{3, Options{SweepParallelism: 1}, 1},
		{1, Options{SweepParallelism: 4}, 4},
		{1, Options{SweepParallelism: 4, Tracer: NewTracer()}, 4},
	} {
		runtime.GOMAXPROCS(c.procs)
		if got := request(c.opt).SweepWidth; got != c.want {
			t.Errorf("GOMAXPROCS %d, SweepParallelism %d, traced %v: width %d, want %d",
				c.procs, c.opt.SweepParallelism, c.opt.Tracer != nil, got, c.want)
		}
	}

	g, err := LoadKernel("mvt")
	if err != nil {
		t.Fatal(err)
	}
	cgra := New4x4(4)
	speculative := func(procs int, opt Options) int64 {
		t.Helper()
		runtime.GOMAXPROCS(procs)
		opt.Seed, opt.TimePerII = 1, time.Hour
		opt.Tracer = NewTracer()
		if _, _, err := Map(g, cgra, opt); err != nil {
			t.Fatal(err)
		}
		return opt.Tracer.CounterTotals()["sweep.speculative"]
	}
	if n := speculative(2, Options{}); n != 0 {
		t.Errorf("traced default run launched %d speculative attempts, want 0", n)
	}
	if n := speculative(1, Options{SweepParallelism: 2}); n == 0 {
		t.Error("explicit SweepParallelism 2 on one core launched no speculative attempt")
	}
	runtime.GOMAXPROCS(1)
	_, _, onOne := iiStarts(t, g, cgra, Options{Seed: 1, TimePerII: time.Hour})
	_, _, serial := iiStarts(t, g, cgra, Options{Seed: 1, TimePerII: time.Hour, SweepParallelism: 1})
	if onOne != serial {
		t.Errorf("default on one core launched %d II attempts, the serial sweep %d", onOne, serial)
	}
}
