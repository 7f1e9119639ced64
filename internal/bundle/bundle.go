// Package bundle serialises mappings to a self-contained JSON document —
// the DFG, the architecture (as ADL text), the II, placements, routes and
// bank ports — and loads them back, re-validating on the way in. Bundles
// let a mapping produced by one tool invocation be inspected, simulated,
// or amended by another, and serve as golden files in regression tests.
package bundle

import (
	"encoding/json"
	"fmt"

	"rewire/internal/adl"
	"rewire/internal/dfg"
	"rewire/internal/mapping"
	"rewire/internal/mrrg"
)

// Version identifies the bundle format.
const Version = 1

// MaxGraphNodes bounds the MRRG a bundle may ask for: Unmarshal rejects
// a bundle whose II times its fabric's slots (mrrg.SlotsOf) exceeds it,
// before any graph is built, so a hostile "ii" cannot demand an
// unbounded allocation. A graph costs about 85 B per node (an 8x8r4
// fabric's 592 slots at II 6 build in about 304 KB), so the bound is about
// 90 MB. It admits the 8x8r4 fabric up to II 1,771 and the largest ADL
// fabric (32x32, 16 registers, 32 banks: 21,568 slots) up to II 48,
// against the mappers' default II cap of 32.
const MaxGraphNodes = 1 << 20

// Document is the on-disk form of a mapping.
type Document struct {
	Version int        `json:"version"`
	Arch    string     `json:"arch"` // ADL text
	Graph   GraphDoc   `json:"dfg"`
	II      int        `json:"ii"`
	Places  []PlaceDoc `json:"placements"`
	Routes  [][]int32  `json:"routes"`     // per edge; nil = unrouted
	Ports   []int32    `json:"bank_ports"` // per node; -1 = none
}

// GraphDoc serialises a DFG.
type GraphDoc struct {
	Name  string    `json:"name"`
	Nodes []NodeDoc `json:"nodes"`
	Edges []EdgeDoc `json:"edges"`
}

// NodeDoc is one DFG node.
type NodeDoc struct {
	Name string `json:"name"`
	Op   string `json:"op"`
}

// EdgeDoc is one DFG edge.
type EdgeDoc struct {
	From    int `json:"from"`
	To      int `json:"to"`
	Dist    int `json:"dist,omitempty"`
	Operand int `json:"operand,omitempty"`
}

// PlaceDoc is one placement.
type PlaceDoc struct {
	PE   int `json:"pe"`
	Time int `json:"time"`
}

// Marshal encodes a mapping (which must validate) into bundle JSON.
func Marshal(m *mapping.Mapping) ([]byte, error) {
	if err := mapping.Validate(m); err != nil {
		return nil, fmt.Errorf("bundle: refusing invalid mapping: %w", err)
	}
	doc := Document{
		Version: Version,
		Arch:    adl.Format(m.Arch),
		II:      m.II,
		Graph:   encodeGraph(m.DFG),
	}
	for _, p := range m.Place {
		doc.Places = append(doc.Places, PlaceDoc{PE: p.PE, Time: p.Time})
	}
	doc.Routes = make([][]int32, len(m.Routes))
	for e, route := range m.Routes {
		if route == nil {
			continue
		}
		enc := make([]int32, len(route))
		for i, n := range route {
			enc[i] = int32(n)
		}
		doc.Routes[e] = enc
	}
	for _, p := range m.BankPorts {
		doc.Ports = append(doc.Ports, int32(p))
	}
	return json.MarshalIndent(doc, "", "  ")
}

func encodeGraph(g *dfg.Graph) GraphDoc {
	doc := GraphDoc{Name: g.Name}
	for _, n := range g.Nodes {
		doc.Nodes = append(doc.Nodes, NodeDoc{Name: n.Name, Op: n.Op.String()})
	}
	for _, e := range g.Edges {
		doc.Edges = append(doc.Edges, EdgeDoc{From: e.From, To: e.To, Dist: e.Dist, Operand: e.Operand})
	}
	return doc
}

// opByName inverts dfg.OpKind.String.
func opByName(name string) (dfg.OpKind, error) {
	for k := dfg.OpAdd; k <= dfg.OpStore; k++ {
		if k.String() == name {
			return k, nil
		}
	}
	return 0, fmt.Errorf("bundle: unknown op %q", name)
}

// Unmarshal decodes bundle JSON into a fully validated mapping.
func Unmarshal(data []byte) (*mapping.Mapping, error) {
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	if doc.Version != Version {
		return nil, fmt.Errorf("bundle: unsupported version %d", doc.Version)
	}
	a, err := adl.Parse(doc.Arch)
	if err != nil {
		return nil, fmt.Errorf("bundle: architecture: %w", err)
	}
	g := dfg.New(doc.Graph.Name)
	for _, n := range doc.Graph.Nodes {
		op, err := opByName(n.Op)
		if err != nil {
			return nil, err
		}
		g.AddNode(n.Name, op)
	}
	for _, e := range doc.Graph.Edges {
		if e.From < 0 || e.From >= g.NumNodes() || e.To < 0 || e.To >= g.NumNodes() || e.Dist < 0 || e.Operand < 0 {
			return nil, fmt.Errorf("bundle: edge %d->%d out of range", e.From, e.To)
		}
		g.AddEdgeOp(e.From, e.To, e.Dist, e.Operand)
	}
	if err := g.Validate(); err != nil {
		return nil, fmt.Errorf("bundle: %w", err)
	}
	if doc.II < 1 {
		return nil, fmt.Errorf("bundle: bad II %d", doc.II)
	}
	if slots := mrrg.SlotsOf(a); doc.II > MaxGraphNodes/slots {
		return nil, fmt.Errorf("bundle: II %d on %d resource slots exceeds %d graph nodes", doc.II, slots, MaxGraphNodes)
	}
	if len(doc.Places) != g.NumNodes() || len(doc.Routes) != g.NumEdges() || len(doc.Ports) != g.NumNodes() {
		return nil, fmt.Errorf("bundle: placement/route/port counts do not match the DFG")
	}
	m := mapping.New(g, a, doc.II)
	for v, p := range doc.Places {
		m.Place[v] = mapping.Placement{PE: p.PE, Time: p.Time}
	}
	for e, route := range doc.Routes {
		if route == nil {
			continue
		}
		dec := make([]mrrg.Node, len(route))
		for i, n := range route {
			dec[i] = mrrg.Node(n)
		}
		m.Routes[e] = dec
	}
	for v, p := range doc.Ports {
		m.BankPorts[v] = mrrg.Node(p)
	}
	if err := mapping.Validate(m); err != nil {
		return nil, fmt.Errorf("bundle: loaded mapping invalid: %w", err)
	}
	return m, nil
}
