package adl

import (
	"testing"

	"rewire/internal/arch"
)

// FuzzADLParse checks Parse on arbitrary text: it returns an error or a
// fabric within the arch.Max* caps, never panics, and Format's output
// of any fabric it accepts parses back to a fabric that Format renders
// identically. The seed corpus is testdata/fuzz/FuzzADLParse. Run it
// with
//
//	go test -run '^$' -fuzz '^FuzzADLParse$' -fuzztime 30s ./internal/adl
func FuzzADLParse(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string) {
		c, err := Parse(src)
		if err != nil {
			return
		}
		if c.Rows < 1 || c.Rows > arch.MaxNameSide || c.Cols < 1 || c.Cols > arch.MaxNameSide {
			t.Fatalf("grid %d x %d outside 1..%d", c.Rows, c.Cols, arch.MaxNameSide)
		}
		if c.Regs < 0 || c.Regs > arch.MaxNameRegs {
			t.Fatalf("regs %d outside 0..%d", c.Regs, arch.MaxNameRegs)
		}
		if c.Banks < 0 || c.Banks > arch.MaxBanks {
			t.Fatalf("banks %d outside 0..%d", c.Banks, arch.MaxBanks)
		}
		if len(c.MemPE) != c.NumPEs() || (c.PECaps != nil && len(c.PECaps) != c.NumPEs()) {
			t.Fatalf("per-PE tables of %d and %d entries for %d PEs", len(c.MemPE), len(c.PECaps), c.NumPEs())
		}
		text := Format(c)
		back, err := Parse(text)
		if err != nil {
			t.Fatalf("Format output does not parse: %v\n%s", err, text)
		}
		if again := Format(back); again != text {
			t.Fatalf("Format -> Parse -> Format changed the text:\n%s\nbecame\n%s", text, again)
		}
	})
}
