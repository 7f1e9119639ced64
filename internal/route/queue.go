package route

import "math/bits"

// The router's priority queue. Search results are a pure function of the
// order in which queued states are popped, so the queue pops in exactly
// one fixed order, the state order:
//
//  1. ascending priority f = g + h;
//  2. then deeper states first (descending elapsed): on the all-tie
//     plateaus an exact floor produces, this turns the search into a
//     dive straight at the goal;
//  3. then ascending node id.
//
// A queued state is one bit of a state index,
//
//	idx = (lat - elapsed)·(SlotWords·64) + slot,
//
// where lat is the searched latency. Within one search elapsed fixes
// the modulo time (Time(n) = (Time(src)+elapsed) mod II) and node ids
// are slot·II + time, so ascending slot at one elapsed is ascending node
// id, and ascending idx is exactly rules 2 and 3. Measuring rows from lat
// rather than from the router's maxLat orders one search the same way and
// puts its deepest states in the first words.
//
// Entries are grouped into one level per exact f value, and each level
// is a two-level bitset over idx: one bit per state, and a summary word
// per 64 words of it marking the non-zero ones. Popping the lowest set
// bit of the minimum-f level is therefore the state order. A level
// record holds f, its count of set bits, the index of its bitset in an
// arena shared by all levels and the bitset itself, so push and pop
// reach the bits without a lookup through the arena; a level whose last
// bit pops returns its all-zero bitset to the arena's free list.
//
// The queue stores no cost. The search detects a stale entry, one whose
// state was re-queued at a strictly lower cost after it was pushed, by
// cell.dist + order[elapsed] != f: that is the float expression the
// push computed f with, so it holds exactly for the latest push of the
// state and for no entry queued under another f. A stale entry keeps the
// level it was pushed under and pops exactly where that f puts it, as
// in a heap. The one difference from a heap of entries is a twin: a
// state re-queued at a strictly lower cost that rounds to the same f
// sets a bit that is already set, and pops once instead of twice. The
// second pop would only have been skipped as stale, so a twin changes
// Expansions and nothing else. Strict and PathFinder costs produce none
// on any test or benchmark stream.
//
// A level bitset spans the current search's lat+1 rows (reset sizes
// it), not the router's maxLat+1, so a short search clears and opens
// short bitsets.
//
// Searches produce few distinct f values: strict searches keep at most
// five levels alive, PathFinder's history costs usually under 16 and
// rarely more than 60. Levels are kept sorted with the minimum last, and
// a push scans for its level from there, where most relaxations land.
// A cost table with nearly as many distinct f values as entries makes
// that scan linear in the queue size and opens one bitset per entry; no
// CostFn in this repository produces one (docs/PERFORMANCE.md).

// chunkLevels is the number of level bitsets per arena chunk. Past the
// first chunk, opening a level never copies a bitset. trim keeps the
// first chunk only, so at most maxRetainedLevels level bitsets (and as
// many level records) survive a call: one pathological search can open
// a level per entry, and long-lived routers must not pin its peak arena.
const (
	chunkLevels       = 64
	maxRetainedLevels = chunkLevels
)

// qlevel is one exact priority f: the number of bits set in its bitset,
// the bitset's index in the arena and the bitset, bitset(blk).
type qlevel struct {
	f   float64
	n   int32
	blk int32
	b   []uint64
}

// stateQueue pops entries in the state order documented above.
type stateQueue struct {
	levels []qlevel   // one per queued f, in descending f: the minimum is last
	chunks [][]uint64 // the arena: up to chunkLevels bitsets of size words per chunk
	nblk   int32      // bitsets handed out since the last reset
	spare  []int32    // bitsets emptied since the last reset, reused first
	nsum   int        // summary words per bitset, which precede its bits
	size   int        // words per bitset
	words  int        // state words of the largest search: trim's size
}

// newStateQueue returns a queue over state indices below 64·words; reset
// sizes it for each search.
func newStateQueue(words int) stateQueue {
	q := stateQueue{words: words}
	q.reset(words)
	return q
}

// bitset returns level bitset blk: its summary words, then its bits.
func (q *stateQueue) bitset(blk int32) []uint64 {
	off := int(blk%chunkLevels) * q.size
	return q.chunks[blk/chunkLevels][off : off+q.size]
}

func (q *stateQueue) empty() bool { return len(q.levels) == 0 }

// push queues state idx with priority f. Relaxations mostly land on or
// near the current minimum, so the level search starts there.
func (q *stateQueue) push(f float64, idx int) {
	i := len(q.levels) - 1
	for i >= 0 && q.levels[i].f < f {
		i--
	}
	if i < 0 || q.levels[i].f != f {
		i++
		q.insertLevel(i, f)
	}
	lv := &q.levels[i]
	b := lv.b
	w := idx >> 6
	word := &b[q.nsum+w]
	bit := uint64(1) << (idx & 63)
	if *word&bit != 0 {
		return // a twin: the state is already queued under f
	}
	if *word == 0 {
		b[w>>6] |= 1 << (w & 63)
	}
	*word |= bit
	lv.n++
}

// insertLevel opens an empty level for f at index at, on a bitset
// emptied earlier in the search or else the next one never used since
// the last reset.
func (q *stateQueue) insertLevel(at int, f float64) {
	var blk int32
	if n := len(q.spare); n > 0 {
		blk = q.spare[n-1]
		q.spare = q.spare[:n-1]
	} else {
		blk = q.nblk
		q.nblk++
		q.extend(blk)
	}
	q.levels = append(q.levels, qlevel{})
	copy(q.levels[at+1:], q.levels[at:])
	q.levels[at] = qlevel{f: f, blk: blk, b: q.bitset(blk)}
}

// extend makes sure the arena holds bitset blk, which is at most one
// past the bitsets it holds. The first chunk doubles its capacity up to
// chunkLevels bitsets, so a router whose searches open few levels keeps
// few bitsets; later chunks, which only searches with many levels
// reach, are allocated whole. The words past a chunk's length were
// never written, so a bitset taken from there is all zero. Moving a
// chunk moves the bitsets of the live levels on it, so their slices are
// taken afresh.
func (q *stateQueue) extend(blk int32) {
	c := int(blk / chunkLevels)
	if c == len(q.chunks) {
		n := chunkLevels
		if c == 0 {
			n = 4
		}
		q.chunks = append(q.chunks, make([]uint64, 0, n*q.size))
	}
	ch := q.chunks[c]
	if end := int(blk%chunkLevels+1) * q.size; end > len(ch) {
		moved := end > cap(ch)
		if moved {
			// A later search may use larger bitsets than the chunk
			// was made for, so the new capacity is at least end.
			ch = append(make([]uint64, 0, max(end, min(2*cap(ch), chunkLevels*q.size))), ch...)
		}
		q.chunks[c] = ch[:end]
		for i := range q.levels {
			if lv := &q.levels[i]; moved && int(lv.blk/chunkLevels) == c {
				lv.b = q.bitset(lv.blk) // the live bitsets moved with the chunk
			}
		}
	}
}

// pop removes the first entry in state order and returns its state index
// and priority. The queue must not be empty.
func (q *stateQueue) pop() (idx int, f float64) {
	last := len(q.levels) - 1
	lv := &q.levels[last]
	b := lv.b
	s := 0
	for b[s] == 0 {
		s++
	}
	sum := b[s]
	w := s<<6 | bits.TrailingZeros64(sum)
	word := &b[q.nsum+w]
	idx = w<<6 | bits.TrailingZeros64(*word)
	*word &= *word - 1
	if *word == 0 {
		b[s] = sum & (sum - 1)
	}
	f = lv.f
	if lv.n--; lv.n == 0 {
		q.spare = append(q.spare, lv.blk)
		*lv = qlevel{} // a record past len must not pin a chunk trim drops
		q.levels = q.levels[:last]
	}
	return idx, f
}

// reset empties the queue and sizes its bitsets for state indices below
// 64·words. A search that ends at its goal leaves levels queued; their
// set words, found through the summaries, are cleared, so every word of
// the arena is zero again: the next search lays its bitsets over the
// arena at its own size and hands them out from the first.
func (q *stateQueue) reset(words int) {
	for _, lv := range q.levels {
		b := lv.b
		for s, sum := range b[:q.nsum] {
			for ; sum != 0; sum &= sum - 1 {
				b[q.nsum+(s<<6|bits.TrailingZeros64(sum))] = 0
			}
			b[s] = 0
		}
	}
	clear(q.levels)
	q.levels = q.levels[:0]
	q.spare = q.spare[:0]
	q.nblk = 0
	q.nsum = (words + 63) >> 6
	q.size = q.nsum + words
}

// trim empties the queue, sizes it for the largest search, and drops
// the arena chunks and bookkeeping beyond maxRetainedLevels levels: all
// chunks but the first.
func (q *stateQueue) trim() {
	q.reset(q.words)
	if len(q.chunks) > 1 {
		clear(q.chunks[1:])
		q.chunks = q.chunks[:1]
	}
	if cap(q.spare) > maxRetainedLevels {
		q.spare = nil
	}
	if cap(q.levels) > maxRetainedLevels {
		q.levels = nil
	}
}
