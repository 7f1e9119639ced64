package route

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
// Entries are grouped into one level per exact f value, and each level
// is a binary min-heap of uint64 keys packing (maxLat-elapsed, node), so
// ascending key is rules 2 and 3. Popping the minimum key of the
// minimum-f level is therefore the state order, entry for entry, stale
// entries included: a stale entry is queued under the f it was pushed
// with and pops exactly where that f puts it.
//
// Searches produce few distinct f values: strict searches keep at most
// five levels alive, PathFinder's history costs usually under 16 and
// rarely more than 60. Levels are kept sorted with the minimum last, and
// a push scans for its level from there, where most relaxations land.
// A cost table with nearly as many distinct f values as entries makes
// that scan linear in the queue size; no CostFn in this repository
// produces one (docs/PERFORMANCE.md).
//
// Two entries may compare equal under the state order only if they are
// the same (node, elapsed) state pushed twice with costs that round to
// the same f. Which of them pops first changes nothing: the cheaper one
// is processed and the dearer one is skipped as stale whichever comes
// first, and both count one expansion. The goal state cannot tie with
// itself: at elapsed lat the heuristic is zero, so f is the cost, and a
// state is only re-queued at a strictly lower cost.

// maxRetainedPQ bounds the entry capacity the level buffers keep between
// calls, and maxRetainedLevels the number of levels whose bookkeeping is
// kept. One pathological search can grow the queue to the full state
// count; trimming afterwards keeps long-lived routers from pinning
// peak-size buffers.
const (
	maxRetainedPQ     = 4096
	maxRetainedLevels = 64
)

// qentry is one queued search state: its packed key and its exact cost
// so far (g), against which pop detects stale entries.
type qentry struct {
	key  uint64
	cost float64
}

// qlevel holds the queued entries of one exact priority f.
type qlevel struct {
	f    float64
	heap []qentry
}

// stateQueue pops entries in the state order documented above.
type stateQueue struct {
	levels []qlevel   // one per queued f, in descending f: the minimum is last
	spare  [][]qentry // emptied level buffers, reused by new levels
}

func (q *stateQueue) empty() bool { return len(q.levels) == 0 }

// push queues an entry with priority f. Relaxations mostly land on or
// near the current minimum, so the level search starts there.
func (q *stateQueue) push(f float64, key uint64, cost float64) {
	i := len(q.levels) - 1
	for i >= 0 && q.levels[i].f < f {
		i--
	}
	if i < 0 || q.levels[i].f != f {
		i++
		q.insertLevel(i, f)
	}
	lv := &q.levels[i]
	h := append(lv.heap, qentry{key: key, cost: cost})
	j := len(h) - 1
	for j > 0 {
		p := (j - 1) / 2
		if h[p].key <= h[j].key {
			break
		}
		h[j], h[p] = h[p], h[j]
		j = p
	}
	lv.heap = h
}

// insertLevel opens an empty level for f at index at, reusing a spare
// buffer when there is one.
func (q *stateQueue) insertLevel(at int, f float64) {
	var buf []qentry
	if n := len(q.spare); n > 0 {
		buf = q.spare[n-1]
		q.spare[n-1] = nil
		q.spare = q.spare[:n-1]
	}
	q.levels = append(q.levels, qlevel{})
	copy(q.levels[at+1:], q.levels[at:])
	q.levels[at] = qlevel{f: f, heap: buf}
}

// pop removes and returns the first entry in state order. The queue must
// not be empty.
func (q *stateQueue) pop() (key uint64, cost float64) {
	last := len(q.levels) - 1
	h := q.levels[last].heap
	top := h[0]
	n := len(h) - 1
	h[0] = h[n]
	h = h[:n]
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h[r].key < h[l].key {
			m = r
		}
		if h[i].key <= h[m].key {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	if n == 0 {
		q.spare = append(q.spare, h)
		q.levels[last] = qlevel{}
		q.levels = q.levels[:last]
	} else {
		q.levels[last].heap = h
	}
	return top.key, top.cost
}

// reset empties the queue, keeping every buffer for reuse.
func (q *stateQueue) reset() {
	for i := range q.levels {
		q.spare = append(q.spare, q.levels[i].heap[:0])
	}
	clear(q.levels)
	q.levels = q.levels[:0]
}

// trim empties the queue and drops buffers beyond the retention bounds.
func (q *stateQueue) trim() {
	q.reset()
	kept, total := 0, 0
	for _, b := range q.spare {
		if kept < maxRetainedLevels && total+cap(b) <= maxRetainedPQ {
			total += cap(b)
			q.spare[kept] = b
			kept++
		}
	}
	clear(q.spare[kept:])
	q.spare = q.spare[:kept]
	if cap(q.spare) > maxRetainedLevels {
		q.spare = append(make([][]qentry, 0, kept), q.spare...)
	}
	if cap(q.levels) > maxRetainedLevels {
		q.levels = nil
	}
}
