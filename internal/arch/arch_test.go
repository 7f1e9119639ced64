package arch

import (
	"reflect"
	"testing"
	"testing/quick"
)

func TestPresets(t *testing.T) {
	ps := Presets()
	if len(ps) != 4 {
		t.Fatalf("presets = %d, want 4", len(ps))
	}
	names := map[string]bool{}
	for _, p := range ps {
		names[p.Name] = true
	}
	for _, want := range []string{"4x4r4", "8x8r4", "4x4r2", "4x4r1"} {
		if !names[want] {
			t.Errorf("missing preset %s", want)
		}
	}
}

func Test4x4Preset(t *testing.T) {
	c := New4x4(4)
	if c.NumPEs() != 16 || c.Regs != 4 || c.Banks != 2 {
		t.Fatalf("bad 4x4 preset: %+v", c)
	}
	if c.NumMemPEs() != 4 {
		t.Fatalf("mem PEs = %d, want 4 (left column)", c.NumMemPEs())
	}
	// Left column only.
	for r := 0; r < 4; r++ {
		if !c.MemPE[c.PEIndex(r, 0)] {
			t.Fatalf("PE (%d,0) should access memory", r)
		}
		if c.MemPE[c.PEIndex(r, 3)] {
			t.Fatalf("PE (%d,3) should not access memory", r)
		}
	}
	if c.BankPorts() != 4 {
		t.Fatalf("bank ports = %d, want 4 (2 banks x 2 ports)", c.BankPorts())
	}
}

func Test8x8Preset(t *testing.T) {
	c := New8x8(4)
	if c.NumPEs() != 64 || c.Banks != 8 {
		t.Fatalf("bad 8x8 preset: %+v", c)
	}
	if c.NumMemPEs() != 16 {
		t.Fatalf("mem PEs = %d, want 16 (both outer columns)", c.NumMemPEs())
	}
}

func TestPEIndexRoundTrip(t *testing.T) {
	c := New(t.Name(), 5, 7, 1, 1, 0)
	for pe := 0; pe < c.NumPEs(); pe++ {
		r, col := c.PECoord(pe)
		if c.PEIndex(r, col) != pe {
			t.Fatalf("round trip failed for %d", pe)
		}
	}
}

func TestNeighborMesh(t *testing.T) {
	c := New4x4(1)
	// PE 5 = (1,1): all four neighbours exist.
	if c.Neighbor(5, North) != 1 || c.Neighbor(5, South) != 9 ||
		c.Neighbor(5, East) != 6 || c.Neighbor(5, West) != 4 {
		t.Fatal("interior neighbours wrong")
	}
	// Corners lose two links.
	if c.Neighbor(0, North) != -1 || c.Neighbor(0, West) != -1 {
		t.Fatal("corner must have boundary links")
	}
	if c.Neighbor(15, South) != -1 || c.Neighbor(15, East) != -1 {
		t.Fatal("far corner must have boundary links")
	}
}

func TestNeighborTorus(t *testing.T) {
	c := New("torus", 4, 4, 1, 1, 0)
	c.Torus = true
	if c.Neighbor(0, North) != 12 || c.Neighbor(0, West) != 3 {
		t.Fatalf("torus wrap wrong: N=%d W=%d", c.Neighbor(0, North), c.Neighbor(0, West))
	}
}

func TestDirString(t *testing.T) {
	if North.String() != "N" || East.String() != "E" || South.String() != "S" || West.String() != "W" {
		t.Fatal("direction names wrong")
	}
}

func TestNewPanicsOnBadArgs(t *testing.T) {
	for _, f := range []func(){
		func() { New("x", 0, 4, 1, 1) },
		func() { New("x", 4, 4, -1, 1) },
		func() { New("x", 4, 4, 1, 1, 9) }, // mem column out of range
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Error("expected panic")
				}
			}()
			f()
		}()
	}
}

func TestParseName(t *testing.T) {
	for name, want := range map[string]*CGRA{
		"4x4r4":    New4x4(4),
		"4X4R1":    New4x4(1),
		"8x8r4":    New8x8(4),
		"6x6r2":    New("6x6r2", 6, 6, 2, 6, 0, 5),
		"2x3r0":    New("2x3r0", 2, 3, 0, 2, 0),
		"1x1r8x":   New("1x1r8x", 1, 1, 8, 2, 0),
		"32x32r16": New("32x32r16", 32, 32, 16, 32, 0, 31),
	} {
		got, err := ParseName(name)
		if err != nil {
			t.Errorf("ParseName(%q): %v", name, err)
			continue
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("ParseName(%q) = %+v, want %+v", name, got, want)
		}
		if got.Banks > MaxBanks {
			t.Errorf("ParseName(%q) builds %d banks, past MaxBanks %d", name, got.Banks, MaxBanks)
		}
	}
	for _, bad := range []string{"", "tiny", "4x4", "0x4r4", "4x0r4", "-2x2r1", "2x2r-3", "4x4r-1",
		"4000x4000r4", "33x4r4", "4x33r4", "4x4r17", "9223372036854775807x1r1"} {
		if _, err := ParseName(bad); err == nil {
			t.Errorf("ParseName(%q) succeeded, want an error", bad)
		}
	}
	// Every name the evaluation builds parses: the Figure 5 presets and
	// the scaling study's grids.
	for _, c := range Presets() {
		if _, err := ParseName(c.Name); err != nil {
			t.Errorf("preset %s: %v", c.Name, err)
		}
	}
	for _, name := range []string{"4x4r4", "6x6r4", "8x8r4", "10x10r4"} {
		if _, err := ParseName(name); err != nil {
			t.Errorf("scaling fabric %s: %v", name, err)
		}
	}
}

// Property: Neighbor is symmetric on a mesh — if b is a's neighbour in
// direction d, then a is b's neighbour in the opposite direction.
func TestPropNeighborSymmetry(t *testing.T) {
	opposite := map[Dir]Dir{North: South, South: North, East: West, West: East}
	f := func(rowsRaw, colsRaw, peRaw uint8, dRaw uint8) bool {
		rows := 1 + int(rowsRaw%8)
		cols := 1 + int(colsRaw%8)
		c := New("p", rows, cols, 1, 1)
		pe := int(peRaw) % c.NumPEs()
		d := Dir(int(dRaw) % int(NumDirs))
		nbr := c.Neighbor(pe, d)
		if nbr < 0 {
			return true
		}
		return c.Neighbor(nbr, opposite[d]) == pe
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}
