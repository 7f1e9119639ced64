package mrrg

import (
	"math/rand"
	"testing"

	"rewire/internal/adl"
	"rewire/internal/arch"
)

// TestArcsAdvanceOneCycle pins the invariant the router's compact search
// state is built on: every arc n->s goes from modulo time t to t+1, so
// for one search source the elapsed cycle count fixes Time of every
// reached resource and (Slot, elapsed) names a state uniquely. Checked
// on the evaluation presets, a torus and an ADL-parsed fabric, at II 1
// (where every arc is a same-time self or cross edge) through 5.
func TestArcsAdvanceOneCycle(t *testing.T) {
	for _, a := range testFabrics(t) {
		for ii := 1; ii <= 5; ii++ {
			g := New(a, ii)
			arcs := 0
			for n := Node(0); int(n) < g.NumNodes(); n++ {
				if g.Slot(n) != int(n)/ii || g.Slot(n) >= g.NumSlots() {
					t.Fatalf("%s II %d: Slot(%d) = %d, want %d < %d", a.Name, ii, n, g.Slot(n), int(n)/ii, g.NumSlots())
				}
				for _, s := range g.Succs(n) {
					arcs++
					if g.Time(s) != (g.Time(n)+1)%ii {
						t.Fatalf("%s II %d: arc %s -> %s does not advance one cycle", a.Name, ii, g.String(n), g.String(s))
					}
				}
			}
			if arcs == 0 {
				t.Fatalf("%s II %d: no arcs", a.Name, ii)
			}
		}
	}
}

// testFabrics are the evaluation presets, a torus and an ADL-parsed
// fabric.
func testFabrics(t *testing.T) []*arch.CGRA {
	t.Helper()
	torus := arch.New("torus", 4, 4, 2, 2, 0)
	torus.Torus = true
	parsed, err := adl.Parse("cgra adlfab\ngrid 3 x 5\nregs 3\nbanks 2\nmemcols 0 4\ntorus on\n")
	if err != nil {
		t.Fatal(err)
	}
	return append(arch.Presets(), torus, parsed)
}

func slotBit(set []uint64, b int) bool { return set[b>>6]&(1<<(b&63)) != 0 }

// TestSlotRowsMatchArcs pins the time independence the probe floods'
// slot tables rely on: at every node, the slots of Succs (Preds) are
// exactly the set bits of the node's slot row and FeedsPE (PE) is the
// slot's table entry, at every time step of every II, including II 1
// where dwell edges vanish.
func TestSlotRowsMatchArcs(t *testing.T) {
	for _, a := range testFabrics(t) {
		for ii := 1; ii <= 4; ii++ {
			g := New(a, ii)
			w := g.SlotWords()
			for _, forward := range []bool{true, false} {
				rows := g.SlotRows(forward)
				pes := g.SlotPEs(forward)
				if len(rows) != g.NumSlots()*w {
					t.Fatalf("%s II %d: %d row words, want %d", a.Name, ii, len(rows), g.NumSlots()*w)
				}
				for n := Node(0); int(n) < g.NumNodes(); n++ {
					row := rows[g.Slot(n)*w : (g.Slot(n)+1)*w]
					pe := g.FeedsPE(n)
					if !forward {
						pe = g.PE(n)
					}
					if int(pes[g.Slot(n)]) != pe {
						t.Fatalf("%s II %d forward=%v: slot PE of %s is %d, want %d", a.Name, ii, forward, g.String(n), pes[g.Slot(n)], pe)
					}
					adj := g.Succs(n)
					if !forward {
						adj = g.Preds(n)
					}
					bitsSet := 0
					for _, word := range row {
						for ; word != 0; word &= word - 1 {
							bitsSet++
						}
					}
					if bitsSet != len(adj) {
						t.Fatalf("%s II %d forward=%v: %s has %d arcs, row has %d bits", a.Name, ii, forward, g.String(n), len(adj), bitsSet)
					}
					for _, m := range adj {
						if !slotBit(row, g.Slot(m)) {
							t.Fatalf("%s II %d forward=%v: arc %s - %s missing from the slot row", a.Name, ii, forward, g.String(n), g.String(m))
						}
					}
				}
			}
		}
	}
}

// TestFreeRoutingSlots checks the occupancy snapshot against Free and
// Kind on a randomly occupied state: a slot is set in row t iff its node
// at t is free and not a bank port.
func TestFreeRoutingSlots(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for _, a := range testFabrics(t) {
		g := New(a, 3)
		st := NewState(g)
		for n := Node(0); int(n) < g.NumNodes(); n++ {
			if g.Valid(n) && rng.Intn(3) == 0 {
				if err := st.Reserve(n, Net(rng.Intn(4)), rng.Intn(5)); err != nil {
					t.Fatal(err)
				}
			}
		}
		w := g.SlotWords()
		free := make([]uint64, g.II*w)
		for i := range free {
			free[i] = ^uint64(0) // stale bits must not survive
		}
		st.FreeRoutingSlots(free)
		for n := Node(0); int(n) < g.NumNodes(); n++ {
			want := st.Free(n) && g.Kind(n) != KindBank
			if got := slotBit(free[g.Time(n)*w:], g.Slot(n)); got != want {
				t.Fatalf("%s: %s in the snapshot = %v, want %v", a.Name, g.String(n), got, want)
			}
		}
		for tt := 0; tt < g.II; tt++ {
			for b := g.NumSlots(); b < w*64; b++ {
				if slotBit(free[tt*w:], b) {
					t.Fatalf("%s: padding bit %d set in row %d", a.Name, b, tt)
				}
			}
		}
	}
}

// TestAdmit is a table test of the occupancy rule Admit (and through it
// Usable) encodes: an invalid resource is never admitted, a free one is
// admitted unshared, and an occupied one only to its own net at its own
// phase, shared.
func TestAdmit(t *testing.T) {
	g := New(arch.New4x4(2), 3)
	st := NewState(g)
	invalid := Invalid
	var free, held Node = Invalid, Invalid
	for n := Node(0); int(n) < g.NumNodes(); n++ {
		switch {
		case !g.Valid(n):
			if invalid == Invalid {
				invalid = n
			}
		case g.Kind(n) != KindFU && free == Invalid:
			free = n
		case g.Kind(n) != KindFU && held == Invalid:
			held = n
		}
	}
	if invalid == Invalid || free == Invalid || held == Invalid {
		t.Fatal("fabric lacks an invalid resource or two routing resources")
	}
	if err := st.Reserve(held, 1, 2); err != nil {
		t.Fatal(err)
	}
	for _, c := range []struct {
		name       string
		n          Node
		net        Net
		phase      int
		ok, shared bool
	}{
		{"invalid", invalid, 1, 2, false, false},
		{"free", free, 1, 2, true, false},
		{"own net, same phase", held, 1, 2, true, true},
		{"own net, other phase", held, 1, 3, false, false},
		{"foreign net", held, 2, 2, false, false},
	} {
		ok, shared := st.Admit(c.n, c.net, c.phase)
		if ok != c.ok || shared != c.shared {
			t.Errorf("%s: Admit = %v,%v; want %v,%v", c.name, ok, shared, c.ok, c.shared)
		}
		if got := st.Usable(c.n, c.net, c.phase); got != c.ok {
			t.Errorf("%s: Usable = %v; want %v", c.name, got, c.ok)
		}
	}
}
