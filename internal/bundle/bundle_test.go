package bundle

import (
	"strconv"
	"strings"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/config"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
	"rewire/internal/pathfinder"
	"rewire/internal/sim"
	"rewire/internal/sweep"
)

func sample(t *testing.T) *mapping.Mapping {
	t.Helper()
	g := kernels.MustLoad("mvt")
	m, res := pathfinder.Map(g, arch.New4x4(4), pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 3 * time.Second}, CandidateBeam: 8})
	if m == nil {
		t.Fatalf("mapping failed: %v", res)
	}
	return m
}

func TestRoundTrip(t *testing.T) {
	m := sample(t)
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Unmarshal(data)
	if err != nil {
		t.Fatal(err)
	}
	if m2.II != m.II || m2.DFG.NumNodes() != m.DFG.NumNodes() {
		t.Fatal("shape changed")
	}
	for v := range m.Place {
		if m.Place[v] != m2.Place[v] {
			t.Fatalf("node %d placement changed: %+v vs %+v", v, m.Place[v], m2.Place[v])
		}
	}
	for e := range m.Routes {
		if len(m.Routes[e]) != len(m2.Routes[e]) {
			t.Fatalf("edge %d route changed", e)
		}
		for i := range m.Routes[e] {
			if m.Routes[e][i] != m2.Routes[e][i] {
				t.Fatalf("edge %d hop %d changed", e, i)
			}
		}
	}
	// The loaded mapping must behave identically end-to-end.
	c1, err := config.Generate(m)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := config.Generate(m2)
	if err != nil {
		t.Fatal(err)
	}
	t1, err := sim.Run(c1, 5)
	if err != nil {
		t.Fatal(err)
	}
	t2, err := sim.Run(c2, 5)
	if err != nil {
		t.Fatal(err)
	}
	if err := t1.Equal(t2); err != nil {
		t.Fatalf("round-tripped mapping executes differently: %v", err)
	}
}

func TestMarshalRejectsInvalid(t *testing.T) {
	m := sample(t)
	m.Routes[0] = nil
	if _, err := Marshal(m); err == nil || !strings.Contains(err.Error(), "invalid") {
		t.Fatalf("err = %v", err)
	}
}

func TestUnmarshalRejectsCorruption(t *testing.T) {
	m := sample(t)
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name   string
		mutate func(string) string
	}{
		{"bad version", func(s string) string { return strings.Replace(s, "\"version\": 1", "\"version\": 99", 1) }},
		{"bad op", func(s string) string { return strings.Replace(s, "\"op\": \"mul\"", "\"op\": \"warp\"", 1) }},
		{"bad ii", func(s string) string { return strings.Replace(s, "\"ii\": "+itoa(m.II), "\"ii\": 0", 1) }},
		{"not json", func(s string) string { return s[:len(s)/2] }},
	}
	for _, c := range cases {
		if _, err := Unmarshal([]byte(c.mutate(string(data)))); err == nil {
			t.Errorf("%s: corruption accepted", c.name)
		}
	}
}

func TestUnmarshalRevalidates(t *testing.T) {
	m := sample(t)
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	// Move one placement to collide: structural validation must fire.
	s := string(data)
	s = strings.Replace(s, "\"placements\": [", "\"placements\": [\n{\"pe\": 99, \"time\": 0},", 1)
	// That also breaks the count (one extra), either way it must fail.
	if _, err := Unmarshal([]byte(s)); err == nil {
		t.Fatal("corrupted placements accepted")
	}
}

// TestUnmarshalBoundsGraph checks that a bundle asking for a graph over
// MaxGraphNodes is rejected before any graph is built (at the paper's
// 8x8r4 fabric "ii": 1000000 would ask for about 50 GB). The II is the
// first one over the bound, so a build that slips through stays small.
func TestUnmarshalBoundsGraph(t *testing.T) {
	m := sample(t)
	data, err := Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	ii := MaxGraphNodes/mrrg.SlotsOf(m.Arch) + 1
	s := strings.Replace(string(data), "\"ii\": "+itoa(m.II), "\"ii\": "+itoa(ii), 1)
	_, missesBefore := mrrg.CacheStats()
	if _, err := Unmarshal([]byte(s)); err == nil || !strings.Contains(err.Error(), "exceeds") {
		t.Errorf("ii %d: Unmarshal = %v, want the graph bound", ii, err)
	}
	if _, misses := mrrg.CacheStats(); misses != missesBefore {
		t.Errorf("ii %d: the rejected bundle built %d graphs", ii, misses-missesBefore)
	}
}

func itoa(v int) string { return strconv.Itoa(v) }
