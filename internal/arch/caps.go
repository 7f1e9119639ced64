package arch

import "strings"

// OpClass groups operations by the functional-unit feature they need.
// Homogeneous CGRAs support every class on every PE; heterogeneous
// fabrics (REVAMP-style) strip expensive units — multipliers, dividers —
// from most PEs to save area.
type OpClass uint8

// Operation classes.
const (
	// ClassALU covers add/sub, logic, shifts, compare and select.
	ClassALU OpClass = iota
	// ClassMul covers multiplication.
	ClassMul
	// ClassDiv covers division.
	ClassDiv
	// ClassMem covers loads and stores (also gated by MemPE).
	ClassMem
	NumOpClasses
)

// String names the class.
func (c OpClass) String() string {
	switch c {
	case ClassALU:
		return "alu"
	case ClassMul:
		return "mul"
	case ClassDiv:
		return "div"
	case ClassMem:
		return "mem"
	}
	return "?"
}

// CapMask is a bit set of supported OpClasses.
type CapMask uint8

// Has reports whether the mask includes class c.
func (m CapMask) Has(c OpClass) bool { return m&(1<<c) != 0 }

// With returns the mask extended by class c.
func (m CapMask) With(c OpClass) CapMask { return m | (1 << c) }

// AllCaps supports every operation class.
const AllCaps CapMask = 1<<NumOpClasses - 1

// String lists the supported classes, e.g. "alu+mul+mem".
func (m CapMask) String() string {
	var parts []string
	for c := OpClass(0); c < NumOpClasses; c++ {
		if m.Has(c) {
			parts = append(parts, c.String())
		}
	}
	if len(parts) == 0 {
		return "none"
	}
	return strings.Join(parts, "+")
}

// Caps returns the capability mask of a PE. Architectures built without
// explicit capabilities are homogeneous: every PE supports everything.
func (c *CGRA) Caps(pe int) CapMask {
	if c.PECaps == nil {
		return AllCaps
	}
	return c.PECaps[pe]
}

// Supports reports whether the PE implements the class (memory class
// additionally requires MemPE).
func (c *CGRA) Supports(pe int, cl OpClass) bool {
	if cl == ClassMem && !c.MemPE[pe] {
		return false
	}
	return c.Caps(pe).Has(cl)
}

// CountSupporting returns how many PEs implement the class (memory class
// intersected with the memory-capable PEs).
func (c *CGRA) CountSupporting(cl OpClass) int {
	n := 0
	for pe := 0; pe < c.NumPEs(); pe++ {
		if c.Supports(pe, cl) {
			n++
		}
	}
	return n
}

// StripClass removes one capability class from every PE except the
// listed ones — e.g. StripClass(ClassMul, 0, 5, 10, 15) leaves
// multipliers only on the diagonal.
func (c *CGRA) StripClass(cl OpClass, keep ...int) {
	c.ensureCaps()
	keepSet := map[int]bool{}
	for _, pe := range keep {
		keepSet[pe] = true
	}
	for pe := range c.PECaps {
		if !keepSet[pe] {
			c.PECaps[pe] &^= 1 << cl
		}
	}
}

func (c *CGRA) ensureCaps() {
	if c.PECaps == nil {
		c.PECaps = make([]CapMask, c.NumPEs())
		for i := range c.PECaps {
			c.PECaps[i] = AllCaps
		}
	}
}
