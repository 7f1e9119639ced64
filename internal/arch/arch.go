// Package arch describes the target coarse-grained reconfigurable array
// (CGRA): a rectangular grid of processing elements (PEs) connected by a
// mesh network-on-chip, with per-PE register files and a set of memory
// banks reachable from designated PE columns.
//
// The description is deliberately minimal: everything the mappers need is
// derivable from the grid dimensions, the per-PE register count, the set of
// memory-capable PEs, and the bank count. The time-extended view used for
// placement and routing lives in package mrrg.
package arch

import (
	"fmt"
	"strings"
)

// Dir identifies one of the four mesh output directions of a PE.
type Dir int

// Mesh link directions. NumDirs is the number of physical output links per
// PE; boundary PEs simply have some directions unconnected.
const (
	North Dir = iota
	East
	South
	West
	NumDirs
)

// String returns the single-letter conventional name of the direction.
func (d Dir) String() string {
	switch d {
	case North:
		return "N"
	case East:
		return "E"
	case South:
		return "S"
	case West:
		return "W"
	}
	return fmt.Sprintf("Dir(%d)", int(d))
}

// CGRA is an immutable description of a CGRA instance.
type CGRA struct {
	// Name is a short human-readable identifier such as "4x4r4".
	Name string
	// Rows and Cols give the PE grid dimensions.
	Rows, Cols int
	// Regs is the number of registers in each PE's register file.
	Regs int
	// Banks is the number of on-chip memory banks. Each bank serves at
	// most one access per cycle.
	Banks int
	// MemPE marks, per PE index, whether that PE may execute memory
	// operations (loads and stores).
	MemPE []bool
	// PECaps optionally makes the fabric heterogeneous: per-PE operation
	// class support (see caps.go). nil means every PE supports every
	// class, which is the paper's (homogeneous) configuration.
	PECaps []CapMask
	// Torus enables wrap-around mesh links. The paper's architectures are
	// plain meshes, so presets leave this false.
	Torus bool
}

// New constructs a CGRA with the given grid, register file size and bank
// count. memCols lists the columns whose PEs can access memory.
func New(name string, rows, cols, regs, banks int, memCols ...int) *CGRA {
	if rows <= 0 || cols <= 0 {
		panic(fmt.Sprintf("arch: non-positive grid %dx%d", rows, cols))
	}
	if regs < 0 {
		panic("arch: negative register count")
	}
	c := &CGRA{
		Name:  name,
		Rows:  rows,
		Cols:  cols,
		Regs:  regs,
		Banks: banks,
		MemPE: make([]bool, rows*cols),
	}
	for _, col := range memCols {
		if col < 0 || col >= cols {
			panic(fmt.Sprintf("arch: memory column %d out of range [0,%d)", col, cols))
		}
		for r := 0; r < rows; r++ {
			c.MemPE[c.PEIndex(r, col)] = true
		}
	}
	return c
}

// PortsPerBank is the number of accesses each memory bank serves per
// cycle (the banks are dual-ported, one read port and one write port).
const PortsPerBank = 2

// NumPEs returns the total number of processing elements.
func (c *CGRA) NumPEs() int { return c.Rows * c.Cols }

// BankPorts returns the total memory accesses the fabric can issue per
// cycle across all banks.
func (c *CGRA) BankPorts() int { return c.Banks * PortsPerBank }

// NumMemPEs returns how many PEs can issue memory operations.
func (c *CGRA) NumMemPEs() int {
	n := 0
	for _, m := range c.MemPE {
		if m {
			n++
		}
	}
	return n
}

// PEIndex converts (row, col) coordinates to a flat PE index.
func (c *CGRA) PEIndex(row, col int) int { return row*c.Cols + col }

// PECoord converts a flat PE index back to (row, col) coordinates.
func (c *CGRA) PECoord(pe int) (row, col int) { return pe / c.Cols, pe % c.Cols }

// Neighbor returns the PE reached by leaving pe in direction d, or -1 if
// that link does not exist (mesh boundary with Torus disabled).
func (c *CGRA) Neighbor(pe int, d Dir) int {
	row, col := c.PECoord(pe)
	switch d {
	case North:
		row--
	case South:
		row++
	case East:
		col++
	case West:
		col--
	default:
		return -1
	}
	if c.Torus {
		row = (row + c.Rows) % c.Rows
		col = (col + c.Cols) % c.Cols
	} else if row < 0 || row >= c.Rows || col < 0 || col >= c.Cols {
		return -1
	}
	return c.PEIndex(row, col)
}

// String implements fmt.Stringer.
func (c *CGRA) String() string {
	return fmt.Sprintf("%s (%dx%d, %d regs/PE, %d banks, %d mem PEs)",
		c.Name, c.Rows, c.Cols, c.Regs, c.Banks, c.NumMemPEs())
}

// The four architecture configurations evaluated in the paper (§V):
// 4x4 CGRAs with 4/2/1 registers per PE and two memory banks reachable
// from the left-most column, and an 8x8 CGRA with 4 registers per PE and
// eight banks reachable from the left-most and right-most columns.

// New4x4 builds a 4x4 CGRA with the given register-file size, two memory
// banks, and memory access on the left-most column.
func New4x4(regs int) *CGRA {
	return New(fmt.Sprintf("4x4r%d", regs), 4, 4, regs, 2, 0)
}

// New8x8 builds an 8x8 CGRA with the given register-file size, eight
// memory banks, and memory access on the left-most and right-most columns.
func New8x8(regs int) *CGRA {
	return New(fmt.Sprintf("8x8r%d", regs), 8, 8, regs, 8, 0, 7)
}

// MaxNameSide and MaxNameRegs bound the grids ParseName and adl.Parse
// build: a name or an ADL text is often untrusted input (a rewire-serve
// request), and the MRRG of a fabric grows with rows × cols × registers
// × II, so "4000x4000r4" must be an error rather than a 16M-PE build. Both are several times
// the largest fabric the evaluation uses (the 10x10r4 of the scaling
// study) and the paper's 4-register files. MaxBanks bounds an ADL bank
// count the same way (the MRRG holds two bank-port slots per bank and
// time step); it admits every fabric ParseName builds, whose widest
// grids get one bank per row.
const (
	MaxNameSide = 32
	MaxNameRegs = 16
	MaxBanks    = MaxNameSide
)

// ParseName builds the CGRA a "ROWSxCOLSrREGS" name (e.g. "4x4r4")
// denotes: the 4x4 and 8x8 paper presets; otherwise two banks on the
// left-most column, or, on a grid wider than four, one bank per row on
// the left-most and right-most columns. Malformed names, non-positive
// grids, negative register counts and sizes past MaxNameSide or
// MaxNameRegs are errors.
func ParseName(name string) (*CGRA, error) {
	var rows, cols, regs int
	if _, err := fmt.Sscanf(strings.ToLower(name), "%dx%dr%d", &rows, &cols, &regs); err != nil {
		return nil, fmt.Errorf("arch: bad name %q (want ROWSxCOLSrREGS, e.g. 4x4r4): %v", name, err)
	}
	if rows <= 0 || cols <= 0 || regs < 0 {
		return nil, fmt.Errorf("arch: bad name %q: want a positive grid and a non-negative register count", name)
	}
	if rows > MaxNameSide || cols > MaxNameSide || regs > MaxNameRegs {
		return nil, fmt.Errorf("arch: bad name %q: at most %dx%d PEs and %d registers", name, MaxNameSide, MaxNameSide, MaxNameRegs)
	}
	switch {
	case rows == 4 && cols == 4:
		return New4x4(regs), nil
	case rows == 8 && cols == 8:
		return New8x8(regs), nil
	case cols > 4:
		return New(name, rows, cols, regs, rows, 0, cols-1), nil
	default:
		return New(name, rows, cols, regs, 2, 0), nil
	}
}

// Presets returns the four CGRA configurations used in the paper's
// evaluation, in the order they appear in Figure 5.
func Presets() []*CGRA {
	return []*CGRA{New4x4(4), New8x8(4), New4x4(2), New4x4(1)}
}
