package resultcache

import (
	"strconv"
	"strings"
	"time"

	"rewire/internal/arch"
	"rewire/internal/dfg"
	"rewire/internal/mrrg"
)

// Request captures the fingerprint-relevant mapping options: the fields
// of a mapping request that can change the committed mapping. Wall-clock
// -only knobs (speculative sweep width, tracers, loggers) are
// deliberately absent — PR 5's determinism matrix proves the committed
// mapping and stats are bit-identical at every sweep width, and
// observers never feed back into the search. See docs/CACHING.md.
type Request struct {
	// Mapper is the algorithm name; aliases are canonicalised by
	// CanonicalMapper so "PF*", "pf" and "pathfinder" share a key.
	Mapper string
	// Seed drives all randomness; equal seeds reproduce runs exactly.
	Seed int64
	// TimePerII bounds the wall-clock per attempted II. A budget change
	// can move which II the sweep commits, so budgets may never share an
	// entry. It is keyed as given: the one builder,
	// portfolio.Request.Fingerprint, resolves an unset (zero) budget to
	// the driver's default first, so a request that leaves it unset and
	// one that spells the default out share an entry.
	TimePerII time.Duration
	// MaxII caps the II sweep, same reasoning and resolution as
	// TimePerII.
	MaxII int
	// Backends is the canonical comma-joined backend subset of a
	// portfolio request (see internal/portfolio); empty for single
	// mappers. Different subsets can commit different mappings (a
	// higher-priority backend may win a tie), so subsets never share an
	// entry. Must already be canonical (portfolio.Canonical) — the
	// fingerprint keys it verbatim.
	Backends string
}

// Key is the canonical fingerprint triple identifying one compile:
// what is mapped (DFG), onto what (Arch), and how (Opts). Two requests
// with equal keys commit bit-identical mappings, so a finished mapping
// is a content-addressed artifact.
type Key struct {
	DFG  string
	Arch string
	Opts string
}

// String joins the triple with a separator that cannot occur in any
// component (components use '|', ',' and '\x00' internally).
func (k Key) String() string { return k.DFG + "\x1f" + k.Arch + "\x1f" + k.Opts }

// KeyFor fingerprints one mapping request. The arch component reuses
// the canonical CGRA serialisation the shared MRRG cache keys on
// (mrrg.ArchFingerprint), so the two caches can never disagree about
// whether two architectures are "the same".
func KeyFor(g *dfg.Graph, a *arch.CGRA, req Request) Key {
	return Key{
		DFG:  DFGFingerprint(g),
		Arch: mrrg.ArchFingerprint(a),
		Opts: OptionsFingerprint(req),
	}
}

// CanonicalMapper canonicalises mapper-name aliases and is the single
// authority on which mapper names exist: the public API, the serve
// daemon and the eval harness spell the same algorithms differently
// ("rewire"/"Rewire", "pathfinder"/"pf"/"PF*", "sa"/"SA",
// "portfolio"/"Portfolio"), and an alias must never cause a spurious
// cache miss. Unknown names report ok=false so callers reject them at
// the boundary instead of silently fingerprinting a name no mapper
// answers to.
func CanonicalMapper(name string) (canonical string, ok bool) {
	switch s := strings.ToLower(strings.TrimSpace(name)); s {
	case "", "rewire":
		return "rewire", true
	case "pf", "pf*", "pathfinder":
		return "pathfinder", true
	case "sa":
		return "sa", true
	case "portfolio":
		return "portfolio", true
	default:
		return s, false
	}
}

// NormalizeMapper is CanonicalMapper for trust-the-input callers:
// ledger ingestion reads mapper names from arbitrary on-disk records
// and must group them somehow, so unknown names are lower-cased and
// kept distinct rather than rejected. Fingerprinting paths must use
// CanonicalMapper (and reject !ok) instead.
func NormalizeMapper(name string) string {
	s, _ := CanonicalMapper(name)
	return s
}

// DFGFingerprint canonically serialises every DFG field a mapper (or a
// consumer of Mapping.DFG) can observe: name, per-node operation kinds
// and names, and per-edge endpoints, inter-iteration distances and
// operand slots. Node names are included because a cached Mapping
// shares the DFG of the compile that populated the entry, and rendered
// schedules print those names. No hashing: equal fingerprints mean
// byte-identical graphs, so sharing is exact.
func DFGFingerprint(g *dfg.Graph) string {
	var b strings.Builder
	b.Grow(len(g.Name) + 12*len(g.Nodes) + 16*len(g.Edges) + 16)
	b.WriteString(g.Name)
	b.WriteString("|n")
	b.WriteString(strconv.Itoa(len(g.Nodes)))
	for _, v := range g.Nodes {
		b.WriteByte('\x00')
		b.WriteString(v.Name)
		b.WriteByte('\x00')
		b.WriteString(strconv.Itoa(int(v.Op)))
	}
	b.WriteString("|e")
	b.WriteString(strconv.Itoa(len(g.Edges)))
	for _, e := range g.Edges {
		b.WriteByte('\x00')
		b.WriteString(strconv.Itoa(e.From))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.To))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.Dist))
		b.WriteByte(',')
		b.WriteString(strconv.Itoa(e.Operand))
	}
	return b.String()
}

// OptionsFingerprint canonically serialises the fingerprint-relevant
// options. The mapper name must be one CanonicalMapper accepts —
// fingerprinting a name no mapper answers to would cache-key garbage,
// so an unknown name panics (portfolio.Request.Fingerprint rejects it
// with an error first). The backend-subset component is
// appended only for portfolio requests, keeping every pre-portfolio
// fingerprint byte-identical to what it was.
func OptionsFingerprint(req Request) string {
	m, ok := CanonicalMapper(req.Mapper)
	if !ok {
		panic("resultcache: unknown mapper name " + strconv.Quote(req.Mapper))
	}
	var b strings.Builder
	b.Grow(48)
	b.WriteString("m=")
	b.WriteString(m)
	b.WriteString("|s=")
	b.WriteString(strconv.FormatInt(req.Seed, 10))
	b.WriteString("|t=")
	b.WriteString(strconv.FormatInt(int64(req.TimePerII), 10))
	b.WriteString("|ii=")
	b.WriteString(strconv.Itoa(req.MaxII))
	if req.Backends != "" {
		b.WriteString("|b=")
		b.WriteString(req.Backends)
	}
	return b.String()
}
