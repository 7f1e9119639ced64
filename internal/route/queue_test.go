package route

import (
	"cmp"
	"math/rand"
	"slices"
	"testing"
)

// refQueue is the state order the queue must pop in, kept the obvious
// way: a set of (f, idx) entries, popped smallest f, then smallest idx.
// Pushing an entry that is already queued is a twin and adds nothing.
type refQueue map[refEntry]bool

type refEntry struct {
	f   float64
	idx int
}

func (r refQueue) pop() refEntry {
	keys := make([]refEntry, 0, len(r))
	for k := range r {
		keys = append(keys, k)
	}
	first := slices.MinFunc(keys, func(a, b refEntry) int {
		return cmp.Or(cmp.Compare(a.f, b.f), cmp.Compare(a.idx, b.idx))
	})
	delete(r, first)
	return first
}

// TestStateQueueMatchesReference drives the queue with random pushes,
// twins included, and pops, and requires the pop sequence of a sorted
// (f, idx) reference. The phases cover more than four live levels while
// earlier levels still hold bits (extend then moves the first arena
// chunk, and the live levels' bitsets with it), more than 64 levels
// (a second chunk), reset at another size with entries still queued,
// and trim. After each phase is drained the arena must be all zero.
func TestStateQueueMatchesReference(t *testing.T) {
	rng := rand.New(rand.NewSource(29))
	const words = 12
	q := newStateQueue(words)
	chunk0 := func() int { // the first chunk's capacity, 0 before it exists
		if len(q.chunks) == 0 {
			return 0
		}
		return cap(q.chunks[0])
	}
	for _, ph := range []struct {
		name   string
		words  int // reset size; 0 trims instead
		levels int // distinct f values pushed
		ops    int
		keep   bool // leave entries queued for the next phase's reset
		moves  bool // the first chunk must move under four or more live levels
		peak   int  // the live levels some push must exceed
	}{
		{"few levels", words, 3, 400, false, false, 2},
		{"chunk 0 grows under live levels", words, 12, 600, false, true, 8},
		{"past one chunk", words, 150, 3000, true, false, chunkLevels},
		{"reset smaller with entries queued", 5, 70, 1500, true, false, 32},
		{"reset larger with entries queued", words, 8, 800, false, false, 4},
		{"trim", 0, 150, 3000, false, false, chunkLevels},
		{"after trim", 0, 6, 500, false, false, 4},
	} {
		if ph.words == 0 {
			q.trim()
		} else {
			q.reset(ph.words)
		}
		size := ph.words
		if size == 0 {
			size = q.words
		}
		ref := refQueue{}
		fs := make([]float64, ph.levels)
		for i := range fs {
			fs[i] = float64(i) * 0.05
		}
		peak, moved := 0, false
		for op := 0; op < ph.ops; op++ {
			if len(ref) > 0 && rng.Intn(3) == 0 {
				want := ref.pop()
				idx, f := q.pop()
				if idx != want.idx || f != want.f {
					t.Fatalf("%s: pop %d gives (%v, %d), want (%v, %d)", ph.name, op, f, idx, want.f, want.idx)
				}
				continue
			}
			e := refEntry{fs[rng.Intn(len(fs))], rng.Intn(64 * size)}
			if rng.Intn(8) == 0 && len(ref) > 0 {
				for k := range ref {
					e = k // a twin of a queued entry
					break
				}
			}
			before := chunk0()
			live := len(q.levels)
			q.push(e.f, e.idx)
			ref[e] = true
			if before != 0 && chunk0() != before && live >= 4 {
				moved = true
			}
			peak = max(peak, len(q.levels))
		}
		if ph.moves && !moved {
			t.Fatalf("%s: the first chunk never moved under live levels", ph.name)
		}
		if peak <= ph.peak {
			t.Fatalf("%s: at most %d live levels, want more than %d", ph.name, peak, ph.peak)
		}
		if ph.keep {
			continue
		}
		for len(ref) > 0 {
			want := ref.pop()
			idx, f := q.pop()
			if idx != want.idx || f != want.f {
				t.Fatalf("%s: draining pop gives (%v, %d), want (%v, %d)", ph.name, f, idx, want.f, want.idx)
			}
		}
		if !q.empty() {
			t.Fatalf("%s: %d levels left after the reference drained", ph.name, len(q.levels))
		}
		for c, ch := range q.chunks {
			if i := slices.IndexFunc(ch, func(w uint64) bool { return w != 0 }); i >= 0 {
				t.Fatalf("%s: arena chunk %d word %d is %#x after draining", ph.name, c, i, ch[i])
			}
		}
	}
}
