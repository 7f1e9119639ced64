package route

import (
	"rewire/internal/dist"
	"rewire/internal/mrrg"
)

// denseRouter is a frozen copy of the router's search as it stood before
// the compact (slot, elapsed) layout and the exact-order queue: scratch
// indexed densely by (node, elapsed) in three parallel arrays, and a
// binary heap ordered by denseLess. It is the reference of the
// differential tests, which require Router to return the same path, the
// same ok and the same Expansions on every call. Do not optimise it.
type denseRouter struct {
	g      *mrrg.Graph
	oracle *dist.Oracle
	maxLat int

	dist  []float64
	from  []int32
	stamp []int32
	epoch int32
	pq    []denseState

	banStamp  []int32
	banEpoch  int32
	nodeStamp []int32
	nodeEpoch int32

	Expansions int64
	retries    int // duplicate-resource retries, so tests can see the ban path ran
}

func newDenseRouter(g *mrrg.Graph, maxLat int) *denseRouter {
	if maxLat < 1 {
		maxLat = 1
	}
	n := g.NumNodes() * (maxLat + 1)
	return &denseRouter{
		g:         g,
		oracle:    dist.For(g),
		maxLat:    maxLat,
		dist:      make([]float64, n),
		from:      make([]int32, n),
		stamp:     make([]int32, n),
		banStamp:  make([]int32, g.NumNodes()),
		nodeStamp: make([]int32, g.NumNodes()),
	}
}

type denseState struct {
	node    mrrg.Node
	elapsed int32
	cost    float64
	f       float64
}

func denseLess(a, b denseState) bool {
	if a.f != b.f {
		return a.f < b.f
	}
	if a.elapsed != b.elapsed {
		return a.elapsed > b.elapsed
	}
	return a.node < b.node
}

func (r *denseRouter) push(s denseState) {
	h := append(r.pq, s)
	i := len(h) - 1
	for i > 0 {
		p := (i - 1) / 2
		if !denseLess(h[i], h[p]) {
			break
		}
		h[i], h[p] = h[p], h[i]
		i = p
	}
	r.pq = h
}

func (r *denseRouter) pop() denseState {
	h := r.pq
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
		if rt := l + 1; rt < n && denseLess(h[rt], h[l]) {
			m = rt
		}
		if !denseLess(h[m], h[i]) {
			break
		}
		h[i], h[m] = h[m], h[i]
		i = m
	}
	r.pq = h
	return top
}

func (r *denseRouter) sidx(n mrrg.Node, e int) int { return int(n)*(r.maxLat+1) + e }

func (r *denseRouter) FindPath(src, dst mrrg.Node, lat int, cost CostFn, floor float64) ([]mrrg.Node, bool) {
	if lat < 1 || lat > r.maxLat {
		return nil, false
	}
	if floor < 0 {
		floor = 0
	}
	ban := bumpEpoch(&r.banEpoch, r.banStamp)
	for attempt := 0; attempt < 3; attempt++ {
		p, found := r.findOnce(src, dst, lat, cost, floor, ban)
		if !found {
			return nil, false
		}
		if dup := r.firstDuplicate(p); dup != mrrg.Invalid {
			r.banStamp[dup] = ban
			r.retries++
			continue
		}
		return p, true
	}
	return nil, false
}

func (r *denseRouter) findOnce(src, dst mrrg.Node, lat int, cost CostFn, floor float64, ban int32) ([]mrrg.Node, bool) {
	bumpEpoch(&r.epoch, r.stamp)
	drow := r.oracle.Row(r.g.PE(dst))
	r.pq = r.pq[:0]
	if int(drow[r.g.FeedsPE(src)])+1 > lat {
		return nil, false
	}
	h0 := 0.0
	if lat > 1 {
		h0 = floor * float64(lat-1)
	}
	si := r.sidx(src, 0)
	r.stamp[si] = r.epoch
	r.dist[si] = 0
	r.from[si] = -1
	r.push(denseState{node: src, elapsed: 0, cost: 0, f: h0})

	for len(r.pq) > 0 {
		cur := r.pop()
		r.Expansions++
		ci := r.sidx(cur.node, int(cur.elapsed))
		if cur.cost > r.dist[ci] {
			continue
		}
		if cur.node == dst && int(cur.elapsed) == lat {
			return r.reconstruct(dst, lat), true
		}
		if int(cur.elapsed) >= lat {
			continue
		}
		nextE := int(cur.elapsed) + 1
		h := 0.0
		if rem := lat - 1 - nextE; rem > 0 {
			h = floor * float64(rem)
		}
		for _, nxt := range r.g.Succs(cur.node) {
			if nextE == lat {
				if nxt != dst {
					continue
				}
				r.relax(nxt, nextE, cur, 0, 0)
				continue
			}
			if nxt == dst && r.g.Kind(nxt) == mrrg.KindFU {
				continue
			}
			if nextE+int(drow[r.g.FeedsPE(nxt)])+1 > lat || r.banStamp[nxt] == ban {
				continue
			}
			c, usable := cost(nxt, nextE)
			if !usable {
				continue
			}
			r.relax(nxt, nextE, cur, c, h)
		}
	}
	return nil, false
}

func (r *denseRouter) relax(nxt mrrg.Node, e int, cur denseState, c, h float64) {
	ni := r.sidx(nxt, e)
	nc := cur.cost + c
	if r.stamp[ni] == r.epoch && r.dist[ni] <= nc {
		return
	}
	r.stamp[ni] = r.epoch
	r.dist[ni] = nc
	r.from[ni] = int32(r.sidx(cur.node, int(cur.elapsed)))
	r.push(denseState{node: nxt, elapsed: int32(e), cost: nc, f: nc + h})
}

func (r *denseRouter) reconstruct(dst mrrg.Node, lat int) []mrrg.Node {
	path := make([]mrrg.Node, lat-1)
	cur := r.sidx(dst, lat)
	for e := lat - 1; e >= 1; e-- {
		cur = int(r.from[cur])
		path[e-1] = mrrg.Node(cur / (r.maxLat + 1))
	}
	return path
}

func (r *denseRouter) firstDuplicate(path []mrrg.Node) mrrg.Node {
	if len(path) < 2 {
		return mrrg.Invalid
	}
	seen := bumpEpoch(&r.nodeEpoch, r.nodeStamp)
	for _, n := range path {
		if r.nodeStamp[n] == seen {
			return n
		}
		r.nodeStamp[n] = seen
	}
	return mrrg.Invalid
}
