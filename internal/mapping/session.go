package mapping

import (
	"fmt"

	"rewire/internal/mrrg"
)

// Session couples a Mapping with the live MRRG occupancy so mappers can
// place, route, and rip up incrementally while the resource state stays
// consistent with the mapping.
//
// Invariant maintained by all mutators: State holds exactly one FU
// reservation per placed node, one bank-port reservation per placed
// memory node, and one reservation per element of every stored route.
type Session struct {
	M     *Mapping
	Graph *mrrg.Graph
	State *mrrg.State

	// illMark is lazily-allocated per-DFG-node scratch for IllMapped,
	// reused across amendment rounds so the ill-set computation does not
	// churn a map per round. Sessions are single-goroutine (see
	// docs/CONCURRENCY.md), so unsynchronised scratch is safe.
	illMark []bool
}

// NewSession builds an empty mapping session for m.DFG on m.Arch at m.II.
// The MRRG comes from the shared arch+II-keyed cache (mrrg.Shared): it is
// immutable, so every session of the same architecture and II — across
// the II sweep, eval workers, and rewire-serve requests — reads one
// Graph. Only the occupancy State is per-session.
func NewSession(m *Mapping) *Session {
	g := mrrg.Shared(m.Arch, m.II)
	return &Session{M: m, Graph: g, State: mrrg.NewState(g)}
}

// Close releases the session's occupancy scratch back to the shared
// graph's recycle pool. The session must not be used afterwards. Closing
// is optional (a dropped session is garbage-collected normally) and the
// produced Mapping stays valid: it holds no reference to the State.
func (s *Session) Close() {
	if s.State != nil {
		s.State.Recycle()
		s.State = nil
	}
}

// CanPlace reports whether node v could be placed on pe at absolute time
// T with the current occupancy (FU free or held by v's own net, memory
// capability, bank port availability). It does not consider routing.
func (s *Session) CanPlace(v, pe, T int) bool {
	op := s.M.DFG.Nodes[v].Op
	if !s.M.Arch.Supports(pe, ClassOf(op)) {
		return false
	}
	fu := s.Graph.FU(pe, T)
	if !s.State.Free(fu) {
		return false
	}
	if op.IsMem() && s.State.FreeBankPort(s.Graph.Time(fu)) == mrrg.Invalid {
		return false
	}
	return true
}

// PlaceNode reserves the FU (and a bank port for memory ops) for v at
// (pe, T). T is an absolute schedule time and may be negative: only
// relative times matter (dependencies) and occupancy is modulo II. The
// caller routes edges separately.
func (s *Session) PlaceNode(v, pe, T int) error {
	if s.M.Placed(v) {
		return fmt.Errorf("mapping: node %d already placed", v)
	}
	op := s.M.DFG.Nodes[v].Op
	if !s.M.Arch.Supports(pe, ClassOf(op)) {
		return fmt.Errorf("mapping: %s op %d needs a %s-capable PE, PE %d is not",
			op, v, ClassOf(op), pe)
	}
	fu := s.Graph.FU(pe, T)
	if err := s.State.Reserve(fu, mrrg.Net(v), 0); err != nil {
		return err
	}
	if op.IsMem() {
		port := s.State.FreeBankPort(s.Graph.Time(fu))
		if port == mrrg.Invalid {
			s.State.Release(fu, mrrg.Net(v))
			return fmt.Errorf("mapping: no free bank port at t=%d for node %d", T%s.M.II, v)
		}
		if err := s.State.Reserve(port, mrrg.Net(v), 0); err != nil {
			s.State.Release(fu, mrrg.Net(v))
			return err
		}
		s.M.BankPorts[v] = port
	}
	s.M.Place[v] = Placement{PE: pe, Time: T}
	return nil
}

// UnplaceNode releases v's FU and bank port. All routes touching v must
// already be ripped up (it panics otherwise, as that is a mapper bug that
// would silently corrupt occupancy).
func (s *Session) UnplaceNode(v int) {
	if !s.M.Placed(v) {
		return
	}
	for _, eid := range s.M.DFG.InEdges(v) {
		if s.M.Routed(eid) {
			panic(fmt.Sprintf("mapping: unplacing node %d with routed edge %d", v, eid))
		}
	}
	for _, eid := range s.M.DFG.OutEdges(v) {
		if s.M.Routed(eid) {
			panic(fmt.Sprintf("mapping: unplacing node %d with routed edge %d", v, eid))
		}
	}
	p := s.M.Place[v]
	s.State.Release(s.Graph.FU(p.PE, p.Time), mrrg.Net(v))
	if port := s.M.BankPorts[v]; port != mrrg.Invalid {
		s.State.Release(port, mrrg.Net(v))
		s.M.BankPorts[v] = mrrg.Invalid
	}
	s.M.Place[v] = Unplaced
}

// RouteEdge stores a route for edge e and reserves its resources under
// the producer's net. The path must already satisfy the structural rules
// (see CheckPath); they are re-checked here so a buggy router cannot
// corrupt the session.
func (s *Session) RouteEdge(e int, path []mrrg.Node) error {
	if s.M.Routed(e) {
		return fmt.Errorf("mapping: edge %d already routed", e)
	}
	if err := s.CheckPath(e, path); err != nil {
		return err
	}
	net := mrrg.Net(s.M.DFG.Edges[e].From)
	if err := s.State.ReservePath(path, net, 1); err != nil {
		return err
	}
	if path == nil {
		path = []mrrg.Node{}
	}
	s.M.Routes[e] = path
	return nil
}

// UnrouteEdge rips up edge e's route, releasing its resources.
func (s *Session) UnrouteEdge(e int) {
	if !s.M.Routed(e) {
		return
	}
	s.State.ReleasePath(s.M.Routes[e], mrrg.Net(s.M.DFG.Edges[e].From))
	s.M.Routes[e] = nil
}

// RipNode unroutes every edge incident to v and unplaces it: the rip-up
// primitive used by remapping iterations.
func (s *Session) RipNode(v int) {
	for _, eid := range s.M.DFG.InEdges(v) {
		s.UnrouteEdge(eid)
	}
	for _, eid := range s.M.DFG.OutEdges(v) {
		s.UnrouteEdge(eid)
	}
	s.UnplaceNode(v)
}

// CheckPath verifies the structural validity of a route for edge e
// without reserving anything: both endpoints placed, latency >= 1, path
// length = latency-1, adjacency holds from producer FU through the path
// to consumer FU, and no resource repeats.
func (s *Session) CheckPath(e int, path []mrrg.Node) error {
	f, hop := s.pathFault(e, path)
	if f == pathOK {
		return nil
	}
	ed := s.M.DFG.Edges[e]
	// before returns the resource ahead of hop i: the producer FU for
	// hop 0, the last hop for the end (i = len(path)).
	before := func(i int) mrrg.Node {
		if i == 0 {
			return s.Graph.FU(s.M.Place[ed.From].PE, s.M.Place[ed.From].Time)
		}
		return path[i-1]
	}
	switch f {
	case pathUnplaced:
		return fmt.Errorf("mapping: routing edge %d with unplaced endpoint", e)
	case pathLatency:
		return fmt.Errorf("mapping: edge %d has latency %d < 1 (producer t=%d, consumer t=%d, dist=%d, II=%d)",
			e, s.M.Latency(e), s.M.Place[ed.From].Time, s.M.Place[ed.To].Time, ed.Dist, s.M.II)
	case pathLength:
		return fmt.Errorf("mapping: edge %d route length %d, want latency-1 = %d", e, len(path), s.M.Latency(e)-1)
	case pathRevisit:
		return fmt.Errorf("mapping: edge %d route revisits %s (iteration collision)", e, s.Graph.String(path[hop]))
	case pathNotAdjacent:
		return fmt.Errorf("mapping: edge %d route hop %d: %s not adjacent to %s",
			e, hop, s.Graph.String(path[hop]), s.Graph.String(before(hop)))
	case pathThroughConsumer:
		return fmt.Errorf("mapping: edge %d route passes through its own consumer FU", e)
	default: // pathEnd
		dst := s.Graph.FU(s.M.Place[ed.To].PE, s.M.Place[ed.To].Time)
		return fmt.Errorf("mapping: edge %d route ends at %s, cannot reach consumer %s",
			e, s.Graph.String(before(hop)), s.Graph.String(dst))
	}
}

// pathFaultCode names the first structural rule a route breaks.
type pathFaultCode uint8

const (
	pathOK pathFaultCode = iota
	pathUnplaced
	pathLatency
	pathLength
	pathRevisit
	pathNotAdjacent
	pathThroughConsumer
	pathEnd
)

// pathFault holds CheckPath's rules, formatting nothing: it returns the
// first rule the route for edge e breaks and, for the per-hop rules, the
// hop's index (len(path) for the final hop into the consumer). CheckPath
// formats its error from the result; CanRoute needs only the code.
func (s *Session) pathFault(e int, path []mrrg.Node) (pathFaultCode, int) {
	ed := s.M.DFG.Edges[e]
	if !s.M.Placed(ed.From) || !s.M.Placed(ed.To) {
		return pathUnplaced, 0
	}
	lat := s.M.Latency(e)
	if lat < 1 {
		return pathLatency, 0
	}
	if len(path) != lat-1 {
		return pathLength, 0
	}
	cur := s.Graph.FU(s.M.Place[ed.From].PE, s.M.Place[ed.From].Time)
	// Revisit detection uses the State's pooled epoch-stamped mark set;
	// CheckPath runs on every route attempt, so a map here would dominate
	// the routing allocation profile.
	s.State.MarkBegin()
	for i, n := range path {
		if s.State.Marked(n) {
			return pathRevisit, i
		}
		s.State.Mark(n)
		if !adjacent(s.Graph, cur, n) {
			return pathNotAdjacent, i
		}
		cur = n
	}
	dst := s.Graph.FU(s.M.Place[ed.To].PE, s.M.Place[ed.To].Time)
	if s.State.Marked(dst) {
		return pathThroughConsumer, len(path)
	}
	if !adjacent(s.Graph, cur, dst) {
		return pathEnd, len(path)
	}
	return pathOK, 0
}

// CanRoute reports whether RouteEdge(e, path) would succeed, without
// reserving anything or formatting an error: e is unrouted, path passes
// CheckPath's rules, and the producer's net may use every hop at its
// phase (free, or held by the net at that phase). Hops never repeat in
// a path that passes the rules, so the hop tests are independent and
// ReservePath succeeds exactly when each passes. Callers that probe
// paths which often fail test them here first and pay for RouteEdge's
// error only when it cannot occur.
func (s *Session) CanRoute(e int, path []mrrg.Node) bool {
	if s.M.Routed(e) {
		return false
	}
	if f, _ := s.pathFault(e, path); f != pathOK {
		return false
	}
	net := mrrg.Net(s.M.DFG.Edges[e].From)
	for i, n := range path {
		if ok, _ := s.State.Admit(n, net, 1+i); !ok {
			return false
		}
	}
	return true
}

func adjacent(g *mrrg.Graph, from, to mrrg.Node) bool {
	for _, s := range g.Succs(from) {
		if s == to {
			return true
		}
	}
	return false
}

// IllMapped returns the nodes that are unplaced or have an incident edge
// between placed endpoints that is unrouted — the nodes Rewire treats as
// needing amendment.
func (s *Session) IllMapped() []int {
	if len(s.illMark) < len(s.M.Place) {
		s.illMark = make([]bool, len(s.M.Place))
	} else {
		clear(s.illMark)
	}
	bad := s.illMark
	n := 0
	for v := range s.M.Place {
		if !s.M.Placed(v) {
			bad[v] = true
			n++
		}
	}
	for e, route := range s.M.Routes {
		if route != nil {
			continue
		}
		ed := s.M.DFG.Edges[e]
		if s.M.Placed(ed.From) && s.M.Placed(ed.To) {
			if !bad[ed.From] {
				bad[ed.From] = true
				n++
			}
			if !bad[ed.To] {
				bad[ed.To] = true
				n++
			}
		}
	}
	// Emitting in ascending node order keeps the result identical to the
	// previous map-then-sort implementation.
	out := make([]int, 0, n)
	for v, b := range bad {
		if b {
			out = append(out, v)
		}
	}
	return out
}

// Restore rebuilds a live session from a stored mapping by replaying its
// placements and routes into a fresh copy (available as the returned
// session's M); it fails if the mapping is internally inconsistent. Bank
// ports may be re-assigned to equivalent free ports during the replay.
func Restore(m *Mapping) (*Session, error) {
	s := NewSession(New(m.DFG, m.Arch, m.II))
	for v := range m.Place {
		if !m.Placed(v) {
			continue
		}
		if err := s.PlaceNode(v, m.Place[v].PE, m.Place[v].Time); err != nil {
			s.Close()
			return nil, err
		}
	}
	for e, route := range m.Routes {
		if route == nil {
			continue
		}
		if err := s.RouteEdge(e, route); err != nil {
			s.Close()
			return nil, err
		}
	}
	return s, nil
}

// Validate independently checks a finished mapping: every node placed on
// a compatible, exclusively-held FU of the fabric; every memory op
// holding a bank port of its own at its execution slot; every edge
// routed with a structurally valid, conflict-free path of graph
// resources. It rebuilds occupancy from scratch, so it cannot be
// fooled by mapper bookkeeping bugs.
func Validate(m *Mapping) error {
	if len(m.Place) != m.DFG.NumNodes() || len(m.Routes) != m.DFG.NumEdges() {
		return fmt.Errorf("mapping: shape mismatch with DFG %q", m.DFG.Name)
	}
	if m.II < 1 {
		return fmt.Errorf("mapping: bad II %d", m.II)
	}
	for v, p := range m.Place {
		if !m.Placed(v) {
			return fmt.Errorf("mapping: node %d (%s) unplaced", v, m.DFG.Nodes[v].Name)
		}
		if p.PE >= m.Arch.NumPEs() {
			return fmt.Errorf("mapping: node %d (%s) on PE %d of %d", v, m.DFG.Nodes[v].Name, p.PE, m.Arch.NumPEs())
		}
	}
	// Route hops must be resources of the graph before Restore indexes
	// its tables by them.
	nodes := mrrg.SlotsOf(m.Arch) * m.II
	for e, route := range m.Routes {
		for _, n := range route {
			if n < 0 || int(n) >= nodes {
				return fmt.Errorf("mapping: edge %d route holds resource %d of %d", e, n, nodes)
			}
		}
	}
	s, err := Restore(m)
	if err != nil {
		return err
	}
	defer s.Close()
	for e := range m.Routes {
		if !m.Routed(e) {
			ed := m.DFG.Edges[e]
			return fmt.Errorf("mapping: edge %d (%s->%s) unrouted", e,
				m.DFG.Nodes[ed.From].Name, m.DFG.Nodes[ed.To].Name)
		}
	}
	// Each memory op holds its own bank-port resource at its modulo
	// time. Restore re-assigns ports, so the stored ones are checked
	// here: GenerateConfig indexes the banks by them.
	s.State.MarkBegin()
	for v := range m.Place {
		port := m.BankPorts[v]
		isMem := m.DFG.Nodes[v].Op.IsMem()
		switch {
		case isMem && port == mrrg.Invalid:
			return fmt.Errorf("mapping: memory op %d without bank port", v)
		case !isMem && port != mrrg.Invalid:
			return fmt.Errorf("mapping: non-memory op %d holds bank port", v)
		case !isMem:
			continue
		case port < 0 || int(port) >= s.Graph.NumNodes() || s.Graph.Kind(port) != mrrg.KindBank:
			return fmt.Errorf("mapping: memory op %d holds resource %d, not a bank port", v, port)
		case s.Graph.Time(port) != ((m.Place[v].Time%m.II)+m.II)%m.II:
			return fmt.Errorf("mapping: node %d bank port at t=%d, executes at t=%d",
				v, s.Graph.Time(port), m.Place[v].Time%m.II)
		case s.State.Marked(port):
			return fmt.Errorf("mapping: node %d shares bank port %s with another memory op", v, s.Graph.String(port))
		}
		s.State.Mark(port)
	}
	return nil
}
