package arch

import "testing"

func TestHomogeneousByDefault(t *testing.T) {
	c := New4x4(2)
	for pe := 0; pe < c.NumPEs(); pe++ {
		if c.Caps(pe) != AllCaps {
			t.Fatalf("PE %d caps = %v, want all", pe, c.Caps(pe))
		}
		if !c.Supports(pe, ClassALU) || !c.Supports(pe, ClassMul) || !c.Supports(pe, ClassDiv) {
			t.Fatalf("PE %d missing compute class", pe)
		}
	}
	// Memory still gated by the column, even with AllCaps.
	if c.Supports(1, ClassMem) {
		t.Fatal("non-memory PE claims memory support")
	}
	if !c.Supports(0, ClassMem) {
		t.Fatal("memory-column PE lost memory support")
	}
}

func TestStripClass(t *testing.T) {
	c := New4x4(2)
	c.StripClass(ClassMul, 0, 5, 10, 15) // multipliers on the diagonal only
	if c.CountSupporting(ClassMul) != 4 {
		t.Fatalf("mul PEs = %d, want 4", c.CountSupporting(ClassMul))
	}
	if !c.Supports(5, ClassMul) || c.Supports(6, ClassMul) {
		t.Fatal("strip kept/removed the wrong PEs")
	}
	// Other classes untouched.
	if c.CountSupporting(ClassALU) != 16 {
		t.Fatal("ALU class damaged")
	}
}

func TestCapMaskStrings(t *testing.T) {
	if AllCaps.String() != "alu+mul+div+mem" {
		t.Fatalf("AllCaps = %q", AllCaps.String())
	}
	if CapMask(0).String() != "none" {
		t.Fatalf("empty = %q", CapMask(0).String())
	}
	if got := CapMask(0).With(ClassMul).String(); got != "mul" {
		t.Fatalf("mul mask = %q", got)
	}
}

func TestCountSupportingMemIntersection(t *testing.T) {
	c := New4x4(2) // 4 memory PEs
	if c.CountSupporting(ClassMem) != 4 {
		t.Fatalf("mem PEs = %d", c.CountSupporting(ClassMem))
	}
	c.StripClass(ClassMem, 0) // mem hardware only on PE 0
	if c.CountSupporting(ClassMem) != 1 {
		t.Fatalf("mem PEs after strip = %d", c.CountSupporting(ClassMem))
	}
}
