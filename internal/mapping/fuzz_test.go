package mapping

import (
	"math/rand"
	"slices"
	"testing"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mrrg"
)

// Route-check faults the fuzz target applies to a walked path.
const (
	faultNone = iota
	faultLength
	faultNotAdjacent
	faultRepeat
	faultConsumer
	faultForeign
	faultOwnPhase
	faultOwnWrongPhase
	faultInvalid
	faultRouted
	numFaults
)

// FuzzRouteCheck checks CanRoute against RouteEdge, the check it stands
// in for. The inputs pick a mesh or torus of 2-5 by 2-5 PEs (1-3
// registers) at II 1-4, an edge of distance 0 or 1 and latency 0-7, a
// producer placement, a random walk of latency-1 hops over the MRRG arcs
// from the producer FU (the consumer goes on an FU the walk's end feeds,
// so most unfaulted paths route, or on an FU the walk crosses at the
// consumer's time step), a random occupancy of foreign nets and
// of the producer's own net at random phases, and one fault: a wrong
// length, a non-adjacent hop, a repeat, the consumer FU inside the path,
// a foreign-held hop, an own-net hop at its phase or at another, an
// invalid resource, or an edge that is already routed. CanRoute must
// return true exactly when RouteEdge returns nil and must change nothing;
// when it returns false, RouteEdge must leave the occupancy and routes as
// they were. The seed corpus is in testdata/fuzz/FuzzRouteCheck.
func FuzzRouteCheck(f *testing.F) {
	f.Fuzz(func(t *testing.T, rows, cols uint8, torus bool, ii uint8, srcPE, srcT, lat uint8, dist bool, occSeed, walkSeed int64, fault, at uint8) {
		a := arch.New("fuzz", 2+int(rows)%4, 2+int(cols)%4, 1+int(rows>>4)%3, 2, 0)
		a.Torus = torus
		g := dfg.New("fuzz")
		prod := g.AddNode("p", dfg.OpAdd)
		cons := g.AddNode("c", dfg.OpAdd)
		d := 0
		if dist {
			d = 1
		}
		e := g.AddEdge(prod, cons, d)
		s := NewSession(New(g, a, 1+int(ii)%4))
		defer s.Close()
		G := s.Graph
		n := G.NumNodes()
		net := mrrg.Net(prod)

		t0 := int(srcT) % (2 * G.II)
		if err := s.PlaceNode(prod, int(srcPE)%a.NumPEs(), t0); err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(walkSeed))
		l := int(lat) % 8
		cur := G.FU(s.M.Place[prod].PE, t0)
		var path []mrrg.Node
		for k := 0; k < l-1; k++ {
			succ := G.Succs(cur)
			if len(succ) == 0 {
				break
			}
			// Prefer a resource the walk has not used yet.
			next := succ[rng.Intn(len(succ))]
			for try := 0; try < 3 && slices.Contains(path, next); try++ {
				next = succ[rng.Intn(len(succ))]
			}
			cur = next
			path = append(path, cur)
		}
		fc := int(fault) % numFaults
		consPE := rng.Intn(a.NumPEs())
		for _, m := range G.Succs(cur) {
			if G.Kind(m) == mrrg.KindFU {
				consPE = G.PE(m)
				break
			}
		}
		if fc == faultConsumer {
			// Put the consumer on an FU the walk crosses at its time step.
			for _, m := range path {
				if G.Kind(m) == mrrg.KindFU && G.Time(m) == (t0+l)%G.II {
					consPE = G.PE(m)
				}
			}
		}
		if s.PlaceNode(cons, consPE, t0+l-d*G.II) != nil {
			return // the consumer would share the producer's FU slot
		}

		rng = rand.New(rand.NewSource(occSeed))
		for k := 0; k < n/8; k++ {
			m := mrrg.Node(rng.Intn(n))
			if !G.Valid(m) || G.Kind(m) == mrrg.KindFU || !s.State.Free(m) {
				continue
			}
			holder := mrrg.Net(100 + rng.Intn(3))
			if rng.Intn(2) == 0 {
				holder = net
			}
			if err := s.State.Reserve(m, holder, 1+rng.Intn(8)); err != nil {
				t.Fatal(err)
			}
		}

		k := 0
		if len(path) > 0 {
			k = int(at) % len(path)
		}
		// reserveHop gives hop k to holder at phase, when it is free.
		reserveHop := func(holder mrrg.Net, phase int) {
			if len(path) > 0 && s.State.Free(path[k]) {
				if err := s.State.Reserve(path[k], holder, phase); err != nil {
					t.Fatal(err)
				}
			}
		}
		switch fc {
		case faultLength:
			if len(path) > 0 && at&1 == 0 {
				path = path[:len(path)-1]
			} else {
				path = append(path, G.Succs(cur)...)
			}
		case faultNotAdjacent:
			if len(path) > 0 {
				path[k] = mrrg.Node(rng.Intn(n))
			}
		case faultRepeat:
			if len(path) > 1 {
				path[k] = path[(k+1)%len(path)]
			}
		case faultForeign:
			reserveHop(100, k+1)
		case faultOwnPhase:
			reserveHop(net, k+1)
		case faultOwnWrongPhase:
			reserveHop(net, k+2)
		case faultInvalid:
			for m := mrrg.Node(rng.Intn(n)); len(path) > 0 && int(m) < n; m++ {
				if !G.Valid(m) {
					path[k] = m
					break
				}
			}
		case faultRouted:
			if s.CanRoute(e, path) {
				if err := s.RouteEdge(e, slices.Clone(path)); err != nil {
					t.Fatal(err)
				}
			}
		}

		occ := occupancy(s)
		ok := s.CanRoute(e, path)
		if !slices.Equal(occupancy(s), occ) {
			t.Fatal("CanRoute changed the occupancy")
		}
		routed := s.M.Routed(e)
		err := s.RouteEdge(e, slices.Clone(path))
		if ok != (err == nil) {
			t.Fatalf("fault %d, latency %d, path %v: CanRoute = %v, RouteEdge error = %v",
				fc, s.M.Latency(e), path, ok, err)
		}
		if !ok && (!slices.Equal(occupancy(s), occ) || s.M.Routed(e) != routed) {
			t.Fatalf("rejected path %v changed the session: %v", path, err)
		}
	})
}

// occupancy lists every resource's holder and phase, then the free rows.
func occupancy(s *Session) []int64 {
	var out []int64
	for n := 0; n < s.Graph.NumNodes(); n++ {
		net, phase := s.State.Occupant(mrrg.Node(n))
		out = append(out, int64(net), int64(phase))
	}
	for _, w := range s.State.FreeRows() {
		out = append(out, int64(w))
	}
	return out
}
