package core

import (
	"math/rand"
	"slices"
	"testing"
)

// refSortCands is the comparison sort candidatesFor used before the
// counting passes: ascending T, then ascending perm rank of the PE.
func refSortCands(cands []pcand, perm []int) {
	slices.SortFunc(cands, func(x, y pcand) int {
		if x.T != y.T {
			if x.T < y.T {
				return -1
			}
			return 1
		}
		if perm[x.pe] != perm[y.pe] {
			if perm[x.pe] < perm[y.pe] {
				return -1
			}
			return 1
		}
		return 0
	})
}

// TestSortCandsMatchesComparator checks the counting passes against the
// comparator sort element for element on random unique (pe, T) sets:
// negative cycles, fabrics of 1 to 64 PEs, fresh permutations, lists
// from empty to longer than MaxCandidatesPerNode, in PE-major order (as
// the probe-anchored loop builds them), in cycle-major order (as the
// fallback window does) and shuffled. One scratch serves every case, so
// stale staging and count buffers are reused throughout.
func TestSortCandsMatchesComparator(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	scr := &amendScratch{}
	maxCands := Options{}.withDefaults().MaxCandidatesPerNode
	for iter := 0; iter < 3000; iter++ {
		numPEs := 1 + rng.Intn(64)
		lo := rng.Intn(41) - 20
		span := 1 + rng.Intn(30)
		n := rng.Intn(min(numPEs*span, 3*maxCands) + 1)
		seen := map[pcand]bool{}
		var cands []pcand
		for len(cands) < n {
			c := pcand{pe: rng.Intn(numPEs), T: lo + rng.Intn(span)}
			if !seen[c] {
				seen[c] = true
				cands = append(cands, c)
			}
		}
		switch iter % 3 {
		case 0: // PE-major, as the probe-anchored loop appends them
			slices.SortFunc(cands, func(x, y pcand) int {
				if x.pe != y.pe {
					return x.pe - y.pe
				}
				return x.T - y.T
			})
		case 1: // cycle-major, as fallbackCandidates appends them
			slices.SortFunc(cands, func(x, y pcand) int {
				if x.T != y.T {
					return x.T - y.T
				}
				return x.pe - y.pe
			})
		}
		perm := rng.Perm(numPEs)
		want := slices.Clone(cands)
		refSortCands(want, perm)
		got := slices.Clone(cands)
		scr.sortCands(got, perm)
		if !slices.Equal(got, want) {
			t.Fatalf("case %d (%d PEs, T in [%d, %d)): counting order\n %v\ncomparator order\n %v",
				iter, numPEs, lo, lo+span, got, want)
		}
	}
}
