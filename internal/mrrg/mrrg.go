// Package mrrg builds the Modulo Routing Resource Graph of a CGRA: the
// hardware resources (ALUs, mesh links, registers, memory-bank ports)
// time-extended to II cycles with wrap-around, following DRESC. Mapping a
// DFG means assigning each operation to an FU resource and each dependency
// to a chain of routing resources through this graph.
//
// Timing model (uniform one-cycle steps):
//
//   - FU(pe,t) executes an operation during cycle t; its latched result
//     can be consumed or moved during t+1.
//   - Link(pe,d,t) carries a value over the mesh wire leaving pe in
//     direction d during cycle t; the value is latched at the neighbour
//     and usable during t+1.
//   - Reg(pe,r,t) holds a value in register r of pe during cycle t; it
//     remains usable at pe during t+1.
//   - A free FU may also forward a value unchanged (a move/route
//     operation), so routes may pass through FUs, as in SPR/PathFinder
//     CGRA mappers.
//
// All times are modulo II: a resource used at time t is used at t, t+II,
// t+2*II, ... of the steady-state schedule, so a single route must never
// use the same MRRG node twice (the second use would collide with another
// iteration's value in flight).
//
// Bank(p,t) nodes are not routing resources: a memory operation placed on
// an FU at time t additionally reserves one bank port at t.
package mrrg

import (
	"fmt"
	"sync"
	"sync/atomic"

	"rewire/internal/arch"
)

// Kind classifies an MRRG resource.
type Kind uint8

// Resource kinds.
const (
	KindFU Kind = iota
	KindLink
	KindReg
	KindBank
)

// String returns a short mnemonic for the kind.
func (k Kind) String() string {
	switch k {
	case KindFU:
		return "fu"
	case KindLink:
		return "link"
	case KindReg:
		return "reg"
	case KindBank:
		return "bank"
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Node identifies one MRRG resource instance (a resource at a specific
// modulo time slot).
type Node int32

// Invalid marks a nonexistent node (e.g. a boundary link).
const Invalid Node = -1

// Graph is the static MRRG for one (architecture, II) pair. It is
// immutable after construction; mutable occupancy lives in State.
type Graph struct {
	Arch *arch.CGRA
	II   int

	slotsPerPE int // FU + links + registers
	numSlots   int // static resources: PEs' slots then bank ports
	numNodes   int // numSlots * II

	kind   []Kind
	pe     []int32 // owning PE, -1 for banks
	valid  []bool  // false for boundary links
	feedPE []int32 // PE whose FU can consume this resource's value next cycle
	slot   []int32 // Slot(n), tabulated so hot loops index by it without dividing

	// Adjacency is stored CSR-style: one flat arena of edge endpoints per
	// direction plus per-node offsets, built in two passes (count, then
	// fill) so construction does a handful of allocations instead of one
	// per node. Succs(n) and Preds(n) are subslices of these arenas.
	succData []Node
	succOff  []int32 // len numNodes+1; node n's successors at [off[n], off[n+1])
	predData []Node
	predOff  []int32

	// statePool recycles State scratch buffers (sized to this graph) so
	// the many short-lived sessions of an II sweep or eval run reuse
	// occupancy arrays instead of reallocating them. See State.Recycle.
	statePool sync.Pool

	// succRows/predRows are the slot-adjacency bitset rows (SlotRows),
	// succSpan their non-zero word spans (SuccSpans) and slotFeed/slotPE
	// the per-slot PE tables (SlotPEs), built on first use behind
	// rowsOnce. cones holds each destination PE's ConeRows, built on
	// first use for that destination.
	rowsOnce           sync.Once
	succRows, predRows []uint64
	succSpan           []uint16
	slotFeed, slotPE   []int32
	cones              []atomic.Pointer[[]uint64]
}

// New builds the MRRG of cgra time-extended to ii cycles.
func New(cgra *arch.CGRA, ii int) *Graph {
	if ii < 1 {
		panic(fmt.Sprintf("mrrg: II must be >= 1, got %d", ii))
	}
	g := &Graph{Arch: cgra, II: ii}
	g.slotsPerPE = 1 + int(arch.NumDirs) + cgra.Regs
	g.numSlots = SlotsOf(cgra)
	g.numNodes = g.numSlots * ii

	g.kind = make([]Kind, g.numNodes)
	g.valid = make([]bool, g.numNodes)
	peBack := make([]int32, 3*g.numNodes)
	g.pe = peBack[:g.numNodes:g.numNodes]
	g.feedPE = peBack[g.numNodes : 2*g.numNodes : 2*g.numNodes]
	g.slot = peBack[2*g.numNodes:]
	for n := range g.slot {
		g.slot[n] = int32(n / ii)
	}

	g.classify()
	g.connect()
	return g
}

// SlotsOf returns the number of static resources of cgra: the slots of
// each of its graphs (NumSlots), which hold that many nodes per II.
func SlotsOf(cgra *arch.CGRA) int {
	return cgra.NumPEs()*(1+int(arch.NumDirs)+cgra.Regs) + cgra.BankPorts()
}

// node packs (slot, t) into a Node id.
func (g *Graph) node(slot, t int) Node { return Node(slot*g.II + t) }

// Slot returns the static resource index of n (same resource across all
// time steps), in [0, NumSlots()).
func (g *Graph) Slot(n Node) int { return int(g.slot[n]) }

// Time returns the modulo time step of n.
func (g *Graph) Time(n Node) int { return int(n) % g.II }

// NumNodes returns the total node count (including invalid boundary
// links, which have no adjacency).
func (g *Graph) NumNodes() int { return g.numNodes }

// NumSlots returns the number of static resources: NumNodes() / II.
func (g *Graph) NumSlots() int { return g.numSlots }

// FU returns the ALU node of pe at modulo time t.
func (g *Graph) FU(pe, t int) Node { return g.node(pe*g.slotsPerPE, g.wrap(t)) }

// Link returns the output-link node of pe in direction d at time t; it
// may be an invalid node on the mesh boundary (check Valid).
func (g *Graph) Link(pe int, d arch.Dir, t int) Node {
	return g.node(pe*g.slotsPerPE+1+int(d), g.wrap(t))
}

// Reg returns register r of pe at time t.
func (g *Graph) Reg(pe, r, t int) Node {
	return g.node(pe*g.slotsPerPE+1+int(arch.NumDirs)+r, g.wrap(t))
}

// Bank returns memory-bank port p at time t.
func (g *Graph) Bank(p, t int) Node {
	return g.node(g.Arch.NumPEs()*g.slotsPerPE+p, g.wrap(t))
}

// wrap reduces an absolute time to a modulo slot.
func (g *Graph) wrap(t int) int {
	t %= g.II
	if t < 0 {
		t += g.II
	}
	return t
}

// Kind returns the resource kind of n.
func (g *Graph) Kind(n Node) Kind { return g.kind[n] }

// PE returns the PE owning n (-1 for bank ports).
func (g *Graph) PE(n Node) int { return int(g.pe[n]) }

// Valid reports whether n is a physically present resource (boundary
// links are allocated but invalid).
func (g *Graph) Valid(n Node) bool { return g.valid[n] }

// FeedsPE returns the PE whose FU can consume this resource's value in
// the next cycle: the neighbour for links, the owning PE for FUs and
// registers, -1 for banks.
func (g *Graph) FeedsPE(n Node) int { return int(g.feedPE[n]) }

// Succs returns the resources reachable from n one cycle later. The
// slice is owned by the graph and must not be mutated or appended to.
func (g *Graph) Succs(n Node) []Node { return g.succData[g.succOff[n]:g.succOff[n+1]] }

// Preds returns the resources that can reach n from one cycle earlier.
// The slice is owned by the graph and must not be mutated or appended to.
func (g *Graph) Preds(n Node) []Node { return g.predData[g.predOff[n]:g.predOff[n+1]] }

// SlotWords returns the length in 64-bit words of a slot bitset: one
// bit per static resource, slot b at bit b%64 of word b/64.
func (g *Graph) SlotWords() int { return (g.numSlots + 63) >> 6 }

// SlotRows returns the slot-adjacency rows, successors (forward) or
// predecessors: row a, the SlotWords() words from a*SlotWords(), has bit
// b set iff an arc leads from slot a to slot b (from b to a backward).
// connect wires every time step alike and every arc advances one cycle,
// so one row per slot holds at every time step. The rows are built on
// first use, so graphs that never flood a probe never pay for them, and
// they are shared read-only like the rest of the graph.
func (g *Graph) SlotRows(forward bool) []uint64 {
	g.rowsOnce.Do(g.buildSlotRows)
	if forward {
		return g.succRows
	}
	return g.predRows
}

// SlotPEs returns a per-slot PE table: FeedsPE of each slot (forward)
// or its PE, -1 for none. Both are the same at every time step; the
// table is built and shared like SlotRows.
func (g *Graph) SlotPEs(forward bool) []int32 {
	g.rowsOnce.Do(g.buildSlotRows)
	if forward {
		return g.slotFeed
	}
	return g.slotPE
}

// SuccSpans returns the non-zero word span of each forward SlotRows
// row: row a is zero outside words [spans[2a], spans[2a+1]). Every
// successor of a slot sits at the PE its value feeds, whose slots are
// contiguous, so a span is one or two words however wide the fabric.
// The table is built and shared like SlotRows.
func (g *Graph) SuccSpans() []uint16 {
	g.rowsOnce.Do(g.buildSlotRows)
	return g.succSpan
}

// ConeRows returns the distance cone of destination PE dst: row d, the
// SlotWords() words from d*SlotWords(), has slot b set iff the value a
// resource of slot b holds can enter dst's FU within d+1 cycles, that
// is iff hops[FeedsPE(b)] <= d. hops is dst's row of minimum link
// counts from every PE (dist.Oracle.Row); it is read only on the first
// call for dst, so every caller must pass the same table. The last row
// is the largest finite distance of any slot, so it holds every slot
// that can reach dst at all; callers clamp larger d to it. Each
// destination's rows are built on first use, published by
// compare-and-swap and shared read-only like the rest of the graph.
func (g *Graph) ConeRows(dst int, hops []uint16) []uint64 {
	g.rowsOnce.Do(g.buildSlotRows)
	p := &g.cones[dst]
	if c := p.Load(); c != nil {
		return *c
	}
	c := g.buildCone(hops)
	if !p.CompareAndSwap(nil, &c) {
		return *p.Load() // another goroutine built the same rows first
	}
	return c
}

// buildCone computes the cone rows of the destination whose hop row is
// hops: each slot is set in the row of its own distance, and each row
// then takes in the one before it.
func (g *Graph) buildCone(hops []uint16) []uint64 {
	last := 0
	for _, p := range g.slotFeed {
		if p >= 0 && hops[p] != unreachable {
			last = max(last, int(hops[p]))
		}
	}
	w := g.SlotWords()
	rows := make([]uint64, (last+1)*w)
	for b, p := range g.slotFeed {
		if p >= 0 && hops[p] != unreachable {
			rows[int(hops[p])*w+b>>6] |= 1 << (b & 63)
		}
	}
	for i := w; i < len(rows); i++ {
		rows[i] |= rows[i-w]
	}
	return rows
}

// unreachable is the hop count of a PE with no route to the destination
// (dist.Unreachable).
const unreachable = ^uint16(0)

func (g *Graph) buildSlotRows() {
	pes := make([]int32, 2*g.numSlots)
	g.slotFeed, g.slotPE = pes[:g.numSlots:g.numSlots], pes[g.numSlots:]
	w := g.SlotWords()
	size := g.numSlots * w
	rows := make([]uint64, 2*size)
	g.succRows, g.predRows = rows[:size:size], rows[size:]
	g.succSpan = make([]uint16, 2*g.numSlots)
	for a := 0; a < g.numSlots; a++ {
		n := g.node(a, 0)
		g.slotFeed[a], g.slotPE[a] = g.feedPE[n], g.pe[n]
		lo, hi := w, 0
		for _, s := range g.Succs(n) {
			b := g.Slot(s)
			g.succRows[a*w+b>>6] |= 1 << (b & 63)
			lo, hi = min(lo, b>>6), max(hi, b>>6+1)
		}
		if lo < hi {
			g.succSpan[2*a], g.succSpan[2*a+1] = uint16(lo), uint16(hi)
		}
		for _, p := range g.Preds(n) {
			b := g.Slot(p)
			g.predRows[a*w+b>>6] |= 1 << (b & 63)
		}
	}
	g.cones = make([]atomic.Pointer[[]uint64], g.Arch.NumPEs())
}

// LinkDir returns the mesh direction of a link resource; it panics on
// other kinds.
func (g *Graph) LinkDir(n Node) arch.Dir {
	if g.kind[n] != KindLink {
		panic("mrrg: LinkDir of " + g.String(n))
	}
	return arch.Dir(g.Slot(n)%g.slotsPerPE - 1)
}

// RegIndex returns the register number of a register resource; it panics
// on other kinds.
func (g *Graph) RegIndex(n Node) int {
	if g.kind[n] != KindReg {
		panic("mrrg: RegIndex of " + g.String(n))
	}
	return g.Slot(n)%g.slotsPerPE - 1 - int(arch.NumDirs)
}

// BankIndex returns the port number of a bank resource; it panics on
// other kinds.
func (g *Graph) BankIndex(n Node) int {
	if g.kind[n] != KindBank {
		panic("mrrg: BankIndex of " + g.String(n))
	}
	return g.Slot(n) - g.Arch.NumPEs()*g.slotsPerPE
}

// String renders a node for diagnostics, e.g. "fu(pe5)@2" or
// "link(pe3,E)@0".
func (g *Graph) String(n Node) string {
	if n < 0 || int(n) >= g.numNodes {
		return fmt.Sprintf("node(%d)", int(n))
	}
	t := g.Time(n)
	slot := g.Slot(n)
	peSlots := g.Arch.NumPEs() * g.slotsPerPE
	if slot >= peSlots {
		return fmt.Sprintf("bank(%d)@%d", slot-peSlots, t)
	}
	pe := slot / g.slotsPerPE
	local := slot % g.slotsPerPE
	switch {
	case local == 0:
		return fmt.Sprintf("fu(pe%d)@%d", pe, t)
	case local <= int(arch.NumDirs):
		return fmt.Sprintf("link(pe%d,%s)@%d", pe, arch.Dir(local-1), t)
	default:
		return fmt.Sprintf("reg(pe%d,r%d)@%d", pe, local-1-int(arch.NumDirs), t)
	}
}

func (g *Graph) classify() {
	a := g.Arch
	for peIdx := 0; peIdx < a.NumPEs(); peIdx++ {
		for t := 0; t < g.II; t++ {
			fu := g.FU(peIdx, t)
			g.kind[fu] = KindFU
			g.pe[fu] = int32(peIdx)
			g.valid[fu] = true
			g.feedPE[fu] = int32(peIdx)
			for d := arch.Dir(0); d < arch.NumDirs; d++ {
				ln := g.Link(peIdx, d, t)
				g.kind[ln] = KindLink
				g.pe[ln] = int32(peIdx)
				nbr := a.Neighbor(peIdx, d)
				g.valid[ln] = nbr >= 0
				g.feedPE[ln] = int32(nbr)
			}
			for r := 0; r < a.Regs; r++ {
				rg := g.Reg(peIdx, r, t)
				g.kind[rg] = KindReg
				g.pe[rg] = int32(peIdx)
				g.valid[rg] = true
				g.feedPE[rg] = int32(peIdx)
			}
		}
	}
	for p := 0; p < a.BankPorts(); p++ {
		for t := 0; t < g.II; t++ {
			bk := g.Bank(p, t)
			g.kind[bk] = KindBank
			g.pe[bk] = -1
			g.valid[bk] = true
			g.feedPE[bk] = -1
		}
	}
}

// connect wires the time-step adjacency into the CSR arenas. All edges
// go from time t to time (t+1) mod II; the router's compact search state
// relies on this (TestArcsAdvanceOneCycle pins it). The edge set is
// enumerated twice by forEachEdge — once to count per-node degrees, once
// to fill the arenas — so per-node successor and predecessor order is
// exactly the enumeration order, which routing determinism depends on.
func (g *Graph) connect() {
	// Counting pass. offs doubles as both offset tables: after the prefix
	// sum, succOff[n] is the start of node n's successor run (likewise
	// predOff for predecessors).
	offs := make([]int32, 2*(g.numNodes+1))
	succOff := offs[: g.numNodes+1 : g.numNodes+1]
	predOff := offs[g.numNodes+1:]
	edges := 0
	g.forEachEdge(func(from, to Node) {
		succOff[from+1]++
		predOff[to+1]++
		edges++
	})
	for i := 0; i < g.numNodes; i++ {
		succOff[i+1] += succOff[i]
		predOff[i+1] += predOff[i]
	}
	g.succOff = succOff
	g.predOff = predOff

	// Fill pass, with a cursor per node starting at its offset.
	data := make([]Node, 2*edges)
	g.succData = data[:edges:edges]
	g.predData = data[edges:]
	curs := make([]int32, 2*g.numNodes)
	succCur := curs[:g.numNodes:g.numNodes]
	predCur := curs[g.numNodes:]
	copy(succCur, succOff[:g.numNodes])
	copy(predCur, predOff[:g.numNodes])
	g.forEachEdge(func(from, to Node) {
		g.succData[succCur[from]] = to
		succCur[from]++
		g.predData[predCur[to]] = from
		predCur[to]++
	})
}

// forEachEdge enumerates every valid MRRG edge in a fixed, deterministic
// order, invoking add(from, to) for each. connect runs it twice (count
// and fill); the order must be identical across both passes.
func (g *Graph) forEachEdge(add func(from, to Node)) {
	a := g.Arch
	addEdgeAllowSelf := func(from, to Node) {
		if !g.valid[from] || !g.valid[to] {
			return
		}
		add(from, to)
	}
	addEdge := func(from, to Node) {
		// At II=1 a dwell edge (reg r -> reg r) or a link/reg self edge
		// would mean one value instance occupying the resource for two
		// consecutive cycles, always colliding with the next iteration's
		// value. The only legal self edge is FU -> FU forwarding, where
		// the implicit ALU output register holds each value for exactly
		// one cycle (added via addEdgeAllowSelf below).
		if from == to {
			return
		}
		addEdgeAllowSelf(from, to)
	}
	// exits appends every resource the value held "at pe" during cycle t
	// can occupy during t+1: the pe's FU (consume or forward), its output
	// links, and its registers.
	exits := func(from Node, pe, t1 int) {
		if g.kind[from] == KindFU {
			addEdgeAllowSelf(from, g.FU(pe, t1))
		} else {
			addEdge(from, g.FU(pe, t1))
		}
		for d := arch.Dir(0); d < arch.NumDirs; d++ {
			addEdge(from, g.Link(pe, d, t1))
		}
		for r := 0; r < a.Regs; r++ {
			addEdge(from, g.Reg(pe, r, t1))
		}
	}
	for pe := 0; pe < a.NumPEs(); pe++ {
		for t := 0; t < g.II; t++ {
			t1 := (t + 1) % g.II
			// FU result is held at its own PE.
			exits(g.FU(pe, t), pe, t1)
			// A link's value is latched at the neighbour.
			for d := arch.Dir(0); d < arch.NumDirs; d++ {
				ln := g.Link(pe, d, t)
				if nbr := a.Neighbor(pe, d); nbr >= 0 {
					exits(ln, nbr, t1)
				}
			}
			// A register's value stays at its own PE. Dwelling keeps
			// using the same register, so only reg r -> reg r.
			for r := 0; r < a.Regs; r++ {
				rg := g.Reg(pe, r, t)
				addEdge(rg, g.FU(pe, t1))
				for d := arch.Dir(0); d < arch.NumDirs; d++ {
					addEdge(rg, g.Link(pe, d, t1))
				}
				addEdge(rg, g.Reg(pe, r, t1))
			}
		}
	}
}
