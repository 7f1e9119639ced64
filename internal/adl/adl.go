// Package adl parses a small architecture description language for CGRA
// fabrics, in the spirit of CGRA-ME's architecture specifications: grid
// size, register files, memory banks and columns, torus links, and
// heterogeneous per-PE capabilities — so new fabrics can be described in
// text files instead of Go code.
//
// Example:
//
//	# a 6x6 area-reduced fabric
//	cgra myfabric
//	grid 6 x 6
//	regs 2
//	banks 4
//	memcols 0 5
//	torus off
//	strip mul keep 0 7 14 21 28 35   # multipliers on the diagonal only
//	strip div keep 0                 # one divider
//
// Directives may appear in any order; later directives override earlier
// ones. Comments run from '#' to end of line.
package adl

import (
	"fmt"
	"strconv"
	"strings"

	"rewire/internal/arch"
)

// Parse builds a CGRA from an ADL description.
func Parse(src string) (*arch.CGRA, error) {
	spec := &builder{
		name:  "custom",
		rows:  4,
		cols:  4,
		regs:  2,
		banks: 2,
	}
	for lineNo, raw := range strings.Split(src, "\n") {
		line := raw
		if i := strings.IndexByte(line, '#'); i >= 0 {
			line = line[:i]
		}
		fields := strings.Fields(line)
		if len(fields) == 0 {
			continue
		}
		if err := spec.directive(fields); err != nil {
			return nil, fmt.Errorf("adl: line %d: %w", lineNo+1, err)
		}
	}
	return spec.build()
}

// MustParse is Parse that panics on error, for static fabric definitions.
func MustParse(src string) *arch.CGRA {
	c, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return c
}

type stripSpec struct {
	class arch.OpClass
	keep  []int
}

type builder struct {
	name       string
	rows, cols int
	regs       int
	banks      int
	memCols    []int
	torus      bool
	strips     []stripSpec
	sawMemCols bool
}

func (b *builder) directive(fields []string) error {
	switch fields[0] {
	case "cgra":
		if len(fields) != 2 {
			return fmt.Errorf("cgra takes exactly one name")
		}
		b.name = fields[1]
	case "grid":
		// "grid R x C" or "grid R C".
		args := dropX(fields[1:])
		if len(args) != 2 {
			return fmt.Errorf("grid takes ROWS x COLS")
		}
		var err error
		if b.rows, err = atoiMin(args[0], 1); err != nil {
			return fmt.Errorf("grid rows: %w", err)
		}
		if b.cols, err = atoiMin(args[1], 1); err != nil {
			return fmt.Errorf("grid cols: %w", err)
		}
		if b.rows > arch.MaxNameSide || b.cols > arch.MaxNameSide {
			return fmt.Errorf("grid %d x %d: at most %d x %d PEs", b.rows, b.cols, arch.MaxNameSide, arch.MaxNameSide)
		}
	case "regs":
		if len(fields) != 2 {
			return fmt.Errorf("regs takes one count")
		}
		v, err := atoiMin(fields[1], 0)
		if err != nil {
			return fmt.Errorf("regs: %w", err)
		}
		if v > arch.MaxNameRegs {
			return fmt.Errorf("regs: %d above maximum %d", v, arch.MaxNameRegs)
		}
		b.regs = v
	case "banks":
		if len(fields) != 2 {
			return fmt.Errorf("banks takes one count")
		}
		v, err := atoiMin(fields[1], 0)
		if err != nil {
			return fmt.Errorf("banks: %w", err)
		}
		if v > arch.MaxBanks {
			return fmt.Errorf("banks: %d above maximum %d", v, arch.MaxBanks)
		}
		b.banks = v
	case "memcols":
		b.sawMemCols = true
		b.memCols = b.memCols[:0]
		for _, f := range fields[1:] {
			v, err := atoiMin(f, 0)
			if err != nil {
				return fmt.Errorf("memcols: %w", err)
			}
			b.memCols = append(b.memCols, v)
		}
	case "torus":
		if len(fields) != 2 || (fields[1] != "on" && fields[1] != "off") {
			return fmt.Errorf("torus takes on|off")
		}
		b.torus = fields[1] == "on"
	case "strip":
		if len(fields) < 3 || fields[2] != "keep" {
			return fmt.Errorf("strip takes: strip CLASS keep PE...")
		}
		cl, err := classByName(fields[1])
		if err != nil {
			return err
		}
		sp := stripSpec{class: cl}
		for _, f := range fields[3:] {
			v, err := atoiMin(f, 0)
			if err != nil {
				return fmt.Errorf("strip keep list: %w", err)
			}
			sp.keep = append(sp.keep, v)
		}
		b.strips = append(b.strips, sp)
	default:
		return fmt.Errorf("unknown directive %q", fields[0])
	}
	return nil
}

func (b *builder) build() (*arch.CGRA, error) {
	if !b.sawMemCols {
		b.memCols = []int{0}
		if b.cols > 4 {
			b.memCols = append(b.memCols, b.cols-1)
		}
	}
	for _, c := range b.memCols {
		if c >= b.cols {
			return nil, fmt.Errorf("adl: memory column %d outside grid of %d columns", c, b.cols)
		}
	}
	cgra := arch.New(b.name, b.rows, b.cols, b.regs, b.banks, b.memCols...)
	cgra.Torus = b.torus
	for _, sp := range b.strips {
		for _, pe := range sp.keep {
			if pe >= cgra.NumPEs() {
				return nil, fmt.Errorf("adl: strip keeps PE %d outside the %d-PE grid", pe, cgra.NumPEs())
			}
		}
		cgra.StripClass(sp.class, sp.keep...)
	}
	return cgra, nil
}

func classByName(name string) (arch.OpClass, error) {
	for cl := arch.OpClass(0); cl < arch.NumOpClasses; cl++ {
		if cl.String() == name {
			return cl, nil
		}
	}
	return 0, fmt.Errorf("unknown operation class %q (alu, mul, div, mem)", name)
}

func dropX(fields []string) []string {
	out := fields[:0:0]
	for _, f := range fields {
		if f != "x" && f != "X" {
			out = append(out, f)
		}
	}
	return out
}

func atoiMin(s string, min int) (int, error) {
	v, err := strconv.Atoi(s)
	if err != nil {
		return 0, fmt.Errorf("bad number %q", s)
	}
	if v < min {
		return 0, fmt.Errorf("%d below minimum %d", v, min)
	}
	return v, nil
}

// Format renders an architecture back into ADL text (round-trippable for
// homogeneous and stripped fabrics).
func Format(c *arch.CGRA) string {
	var b strings.Builder
	fmt.Fprintf(&b, "cgra %s\n", c.Name)
	fmt.Fprintf(&b, "grid %d x %d\n", c.Rows, c.Cols)
	fmt.Fprintf(&b, "regs %d\n", c.Regs)
	fmt.Fprintf(&b, "banks %d\n", c.Banks)
	var cols []string
	for col := 0; col < c.Cols; col++ {
		if c.MemPE[c.PEIndex(0, col)] {
			cols = append(cols, strconv.Itoa(col))
		}
	}
	fmt.Fprintf(&b, "memcols %s\n", strings.Join(cols, " "))
	if c.Torus {
		b.WriteString("torus on\n")
	}
	if c.PECaps != nil {
		for cl := arch.OpClass(0); cl < arch.NumOpClasses; cl++ {
			var keep []string
			stripped := false
			for pe := 0; pe < c.NumPEs(); pe++ {
				if c.Caps(pe).Has(cl) {
					keep = append(keep, strconv.Itoa(pe))
				} else {
					stripped = true
				}
			}
			if stripped {
				fmt.Fprintf(&b, "strip %s keep %s\n", cl, strings.Join(keep, " "))
			}
		}
	}
	return b.String()
}
