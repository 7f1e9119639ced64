package mrrg

import (
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
	torus := arch.New("torus", 4, 4, 2, 2, 0)
	torus.Torus = true
	parsed, err := adl.Parse("cgra adlfab\ngrid 3 x 5\nregs 3\nbanks 2\nmemcols 0 4\ntorus on\n")
	if err != nil {
		t.Fatal(err)
	}
	fabrics := append(arch.Presets(), torus, parsed)
	for _, a := range fabrics {
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
