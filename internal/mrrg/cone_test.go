package mrrg

import (
	"slices"
	"sync"
	"testing"

	"rewire/internal/arch"
)

// TestConeRowsConcurrent has several goroutines ask at once for the
// cone rows of every destination, so that they race to build and
// publish them: every caller must get the one published table, equal
// to a fresh build. Run it under -race.
func TestConeRowsConcurrent(t *testing.T) {
	a, err := arch.ParseName("8x8r2")
	if err != nil {
		t.Fatal(err)
	}
	g := New(a, 2)
	// On a mesh the minimum link count is the Manhattan distance.
	hops := make([][]uint16, a.NumPEs())
	for dst := range hops {
		hops[dst] = make([]uint16, a.NumPEs())
		dr, dc := a.PECoord(dst)
		for p := range hops[dst] {
			pr, pc := a.PECoord(p)
			hops[dst][p] = uint16(max(pr-dr, dr-pr) + max(pc-dc, dc-pc))
		}
	}
	const workers = 4
	got := make([][][]uint64, workers)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for dst := range hops {
				got[w] = append(got[w], g.ConeRows(dst, hops[dst]))
			}
		}(w)
	}
	wg.Wait()
	for dst := range hops {
		want := g.buildCone(hops[dst])
		for w := 0; w < workers; w++ {
			if !slices.Equal(got[w][dst], want) {
				t.Fatalf("worker %d, destination %d: cone rows differ from a fresh build", w, dst)
			}
			if &got[w][dst][0] != &got[0][dst][0] {
				t.Fatalf("worker %d, destination %d: got rows other than the published ones", w, dst)
			}
		}
	}
}
