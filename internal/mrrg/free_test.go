package mrrg

import (
	"math/rand"
	"slices"
	"testing"
)

// scanFreeRows is the full occupancy scan that State's maintained free
// rows replaced, kept as their reference: slot b is set in row t iff its
// node at time t is valid, unoccupied and not a bank port.
func scanFreeRows(s *State) []uint64 {
	g := s.G
	w := g.SlotWords()
	free := make([]uint64, g.II*w)
	for n := Node(0); int(n) < g.NumNodes(); n++ {
		if occ, _ := s.Occupant(n); occ != NoNet || !g.Valid(n) || g.Kind(n) == KindBank {
			continue
		}
		b := g.Slot(n)
		free[g.Time(n)*w+b>>6] |= 1 << (b & 63)
	}
	return free
}

// Clone returns an independent copy of the occupancy, drawing its
// buffers from the graph's pool like NewState (the static graph is
// shared).
func (s *State) Clone() *State {
	c := s.G.blankState()
	copy(c.occ, s.occ)
	copy(c.phase, s.phase)
	copy(c.ref, s.ref)
	copy(c.free, s.free)
	return c
}

// TestFreeRowsMatchScan drives random sequences of Reserve and Release,
// ReservePath with and without rollback, Clone and Recycle followed by
// NewState over every preset, a torus and an ADL fabric at II 1-4, and
// checks after every step that FreeRows (and the FreeRoutingSlots copy)
// equals the full scan. The draws cover bank ports, invalid boundary
// links, shared own-net references and failed reservations.
func TestFreeRowsMatchScan(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	var banks, invalid, rollbacks, clones, recycles int
	for _, a := range testFabrics(t) {
		for ii := 1; ii <= 4; ii++ {
			g := New(a, ii)
			st := NewState(g)
			check := func(step string) {
				t.Helper()
				want := scanFreeRows(st)
				if !slices.Equal(st.FreeRows(), want) {
					t.Fatalf("%s II %d after %s: free rows differ from the scan", a.Name, ii, step)
				}
				snap := make([]uint64, len(want))
				st.FreeRoutingSlots(snap)
				if !slices.Equal(snap, want) {
					t.Fatalf("%s II %d after %s: FreeRoutingSlots differs from the scan", a.Name, ii, step)
				}
			}
			check("NewState")
			// held lists one entry per reference taken, so releases
			// always name a net that holds the node.
			type ref struct {
				n   Node
				net Net
			}
			var held []ref
			for step := 0; step < 400; step++ {
				switch op := rng.Intn(10); {
				case op < 4: // Reserve any node, valid or not
					n := Node(rng.Intn(g.NumNodes()))
					net, phase := Net(rng.Intn(3)), rng.Intn(3)
					if !g.Valid(n) {
						invalid++
					}
					if g.Kind(n) == KindBank {
						banks++
					}
					if st.Reserve(n, net, phase) == nil {
						held = append(held, ref{n, net})
					}
					check("Reserve")
				case op < 7: // Release one reference
					if len(held) == 0 {
						continue
					}
					i := rng.Intn(len(held))
					st.Release(held[i].n, held[i].net)
					held = slices.Delete(held, i, i+1)
					check("Release")
				case op < 8: // ReservePath, which may roll back
					path := make([]Node, 1+rng.Intn(6))
					for i := range path {
						path[i] = Node(rng.Intn(g.NumNodes()))
					}
					net := Net(rng.Intn(3))
					if err := st.ReservePath(path, net, 1); err == nil {
						for _, n := range path {
							held = append(held, ref{n, net})
						}
					} else {
						rollbacks++
					}
					check("ReservePath")
				case op < 9: // continue on a clone; the original is untouched
					orig := st
					before := slices.Clone(orig.FreeRows())
					st = orig.Clone()
					clones++
					check("Clone")
					if n := Node(rng.Intn(g.NumNodes())); st.Free(n) && g.Kind(n) != KindBank {
						if err := st.Reserve(n, 5, 1); err != nil {
							t.Fatal(err)
						}
						held = append(held, ref{n, 5})
					}
					check("Reserve on the clone")
					if !slices.Equal(orig.FreeRows(), before) {
						t.Fatalf("%s II %d: reserving on a clone changed the original's free rows", a.Name, ii)
					}
					orig.Recycle()
				default: // recycle a dirty state; NewState may reuse it
					st.Recycle()
					st = NewState(g)
					held = held[:0]
					recycles++
					check("Recycle and NewState")
				}
			}
		}
	}
	if banks == 0 || invalid == 0 || rollbacks == 0 || clones == 0 || recycles == 0 {
		t.Fatalf("weak coverage: %d bank draws, %d invalid draws, %d rollbacks, %d clones, %d recycles",
			banks, invalid, rollbacks, clones, recycles)
	}
}
