package adl

import (
	"fmt"
	"strings"
	"testing"

	"rewire/internal/arch"
)

func TestParseFullSpec(t *testing.T) {
	c, err := Parse(`
# a 6x6 area-reduced fabric
cgra myfabric
grid 6 x 6
regs 3
banks 4
memcols 0 5
torus off
strip mul keep 0 7 14 21 28 35
strip div keep 0
`)
	if err != nil {
		t.Fatal(err)
	}
	if c.Name != "myfabric" || c.Rows != 6 || c.Cols != 6 || c.Regs != 3 || c.Banks != 4 {
		t.Fatalf("parsed: %+v", c)
	}
	if c.NumMemPEs() != 12 {
		t.Fatalf("mem PEs = %d, want 12", c.NumMemPEs())
	}
	if c.CountSupporting(arch.ClassMul) != 6 {
		t.Fatalf("mul PEs = %d, want 6", c.CountSupporting(arch.ClassMul))
	}
	if c.CountSupporting(arch.ClassDiv) != 1 {
		t.Fatalf("div PEs = %d, want 1", c.CountSupporting(arch.ClassDiv))
	}
	if c.Torus {
		t.Fatal("torus should be off")
	}
}

func TestParseDefaults(t *testing.T) {
	c, err := Parse("cgra mini\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 4 || c.Cols != 4 || c.Regs != 2 || c.Banks != 2 {
		t.Fatalf("defaults: %+v", c)
	}
	// Default memory on the left column only (narrow grid).
	if c.NumMemPEs() != 4 {
		t.Fatalf("mem PEs = %d", c.NumMemPEs())
	}
	// Wide grids get both outer columns by default.
	w, err := Parse("grid 4 x 8\n")
	if err != nil {
		t.Fatal(err)
	}
	if w.NumMemPEs() != 8 {
		t.Fatalf("wide default mem PEs = %d, want 8", w.NumMemPEs())
	}
}

func TestParseGridWithoutX(t *testing.T) {
	c, err := Parse("grid 3 5\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != 3 || c.Cols != 5 {
		t.Fatalf("grid = %dx%d", c.Rows, c.Cols)
	}
}

func TestParseTorus(t *testing.T) {
	c, err := Parse("torus on\n")
	if err != nil {
		t.Fatal(err)
	}
	if !c.Torus {
		t.Fatal("torus not enabled")
	}
	if c.Neighbor(0, arch.North) < 0 {
		t.Fatal("torus wrap missing")
	}
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"grid 0 x 4\n",                   // zero rows
		"grid 4\n",                       // missing cols
		"regs -1\n",                      // negative
		"regs\n",                         // missing arg
		"banks two\n",                    // not a number
		"memcols 9\n",                    // outside default 4-col grid
		"torus maybe\n",                  // bad flag
		"strip mul 0 1\n",                // missing keep
		"strip warp keep 0\n",            // unknown class
		"grid 2 x 2\nstrip mul keep 9\n", // keep outside grid
		"quantum 7\n",                    // unknown directive
		"cgra\n",                         // missing name
		"grid 4000 x 4000\n",             // past arch.MaxNameSide
		"grid 33 x 4\n",                  // rows past the cap
		"grid 4 x 33\n",                  // cols past the cap
		"regs 17\n",                      // past arch.MaxNameRegs
		"banks 33\n",                     // past arch.MaxBanks
		"banks 2000000000\n",             // billions of bank slots
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestParseAcceptsSizeCap(t *testing.T) {
	c, err := Parse(fmt.Sprintf("grid %d x %d\nregs %d\nbanks %d\n", arch.MaxNameSide, arch.MaxNameSide, arch.MaxNameRegs, arch.MaxBanks))
	if err != nil {
		t.Fatal(err)
	}
	if c.Rows != arch.MaxNameSide || c.Cols != arch.MaxNameSide || c.Regs != arch.MaxNameRegs || c.Banks != arch.MaxBanks {
		t.Fatalf("parsed: %+v", c)
	}
}

func TestFormatRoundTrip(t *testing.T) {
	src := `
cgra rt
grid 4 x 4
regs 2
banks 2
memcols 0
strip mul keep 5 10
`
	c, err := Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	c2, err := Parse(Format(c))
	if err != nil {
		t.Fatalf("re-parse of Format output failed: %v\n%s", err, Format(c))
	}
	if c2.Name != c.Name || c2.Rows != c.Rows || c2.Cols != c.Cols ||
		c2.Regs != c.Regs || c2.Banks != c.Banks || c2.NumMemPEs() != c.NumMemPEs() {
		t.Fatalf("round trip changed the fabric:\n%s", Format(c2))
	}
	for cl := arch.OpClass(0); cl < arch.NumOpClasses; cl++ {
		if c.CountSupporting(cl) != c2.CountSupporting(cl) {
			t.Fatalf("class %v changed: %d vs %d", cl, c.CountSupporting(cl), c2.CountSupporting(cl))
		}
	}
}

func TestMustParsePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("expected panic")
		}
	}()
	MustParse("grid zero x 4\n")
}

func TestLaterDirectivesOverride(t *testing.T) {
	c, err := Parse("regs 1\nregs 8\n")
	if err != nil {
		t.Fatal(err)
	}
	if c.Regs != 8 {
		t.Fatalf("regs = %d, want the later 8", c.Regs)
	}
	if !strings.Contains(Format(c), "regs 8") {
		t.Fatal("format lost override")
	}
}
