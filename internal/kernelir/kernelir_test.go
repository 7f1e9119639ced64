package kernelir

import (
	"fmt"
	"strings"
	"testing"
	"testing/quick"

	"rewire/internal/dfg"
)

func parse(t *testing.T, src string) *Program {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	return p
}

func lower(t *testing.T, src string) *dfg.Graph {
	t.Helper()
	g, err := Lower(parse(t, src))
	if err != nil {
		t.Fatalf("Lower: %v", err)
	}
	return g
}

func TestLexBasics(t *testing.T) {
	toks, err := lexInto(nil, "t = a[i] + 2 # comment\n")
	if err != nil {
		t.Fatal(err)
	}
	kinds := make([]tokKind, len(toks))
	for i, tk := range toks {
		kinds[i] = tk.kind
	}
	want := []tokKind{tokIdent, tokAssign, tokIdent, tokLBracket, tokIdent, tokRBracket, tokOp, tokNumber, tokNewline, tokEOF}
	if len(kinds) != len(want) {
		t.Fatalf("kinds = %v, want %v", kinds, want)
	}
	for i := range want {
		if kinds[i] != want[i] {
			t.Fatalf("token %d = %v, want %v", i, kinds[i], want[i])
		}
	}
}

func TestLexShiftOperators(t *testing.T) {
	toks, err := lexInto(nil, "t = x << 2\nu = x >> 1\n")
	if err != nil {
		t.Fatal(err)
	}
	var ops []string
	for _, tk := range toks {
		if tk.kind == tokOp {
			ops = append(ops, tk.text)
		}
	}
	if len(ops) != 2 || ops[0] != "<<" || ops[1] != ">>" {
		t.Fatalf("ops = %v", ops)
	}
}

func TestLexRejectsBadChar(t *testing.T) {
	if _, err := lexInto(nil, "t = a ? b\n"); err == nil {
		t.Fatal("expected error on '?'")
	}
	if _, err := lexInto(nil, "t = a < b\n"); err == nil {
		t.Fatal("expected error on single '<'")
	}
}

func TestParseDirectives(t *testing.T) {
	p := parse(t, `
kernel foo
param alpha, beta
induction k
t = a[k] * alpha
`)
	if p.Name != "foo" || p.Induction != "k" {
		t.Fatalf("name/induction = %q/%q", p.Name, p.Induction)
	}
	if !p.Params["alpha"] || !p.Params["beta"] {
		t.Fatalf("params = %v", p.Params)
	}
	if len(p.Stmts) != 1 {
		t.Fatalf("stmts = %d", len(p.Stmts))
	}
}

func TestParsePrecedence(t *testing.T) {
	p := parse(t, "t = a[i] + b[i] * c[i]\n")
	bin, ok := p.Stmts[0].RHS.(Bin)
	if !ok || bin.Op != "+" {
		t.Fatalf("top op = %v", p.Stmts[0].RHS)
	}
	if inner, ok := bin.R.(Bin); !ok || inner.Op != "*" {
		t.Fatalf("mul must bind tighter: %v", p.Stmts[0].RHS)
	}
}

func TestParseParens(t *testing.T) {
	p := parse(t, "t = (a[i] + b[i]) * c[i]\n")
	bin := p.Stmts[0].RHS.(Bin)
	if bin.Op != "*" {
		t.Fatalf("top op = %q, want *", bin.Op)
	}
}

func TestParseIndexForms(t *testing.T) {
	p := parse(t, "t = a[i+1] + a[i-1] + a[2] + b[j][i]\n")
	reads := collectReads(p.Stmts[0].RHS)
	keys := make([]string, len(reads))
	for i, r := range reads {
		keys[i] = refKey(r.Array, r.Index)
	}
	want := []string{"a[i+1]", "a[i-1]", "a[2]", "b[j][i]"}
	for i := range want {
		if keys[i] != want[i] {
			t.Fatalf("keys = %v, want %v", keys, want)
		}
	}
}

func collectReads(e Expr) []ArrayRead {
	switch x := e.(type) {
	case ArrayRead:
		return []ArrayRead{x}
	case Bin:
		return append(collectReads(x.L), collectReads(x.R)...)
	case Call:
		var out []ArrayRead
		for _, a := range x.Args {
			out = append(out, collectReads(a)...)
		}
		return out
	}
	return nil
}

func TestParseErrors(t *testing.T) {
	cases := []string{
		"",                            // empty body
		"t = \n",                      // missing expr
		"a[i] += b[i]\n",              // += to array
		"param alpha\nalpha = a[i]\n", // assign to param
		"t = foo(a[i])\n",             // unknown function
		"t = max(a[i])\n",             // wrong arity
		"t = a[i] @ 1\n",              // @ after array... parsed as ident then bad
		"t = s@0\n",                   // zero delay
		"kernel\n t = a[i]\n",         // kernel without name
	}
	for _, src := range cases {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) succeeded, want error", src)
		}
	}
}

func TestLowerSimpleExpr(t *testing.T) {
	g := lower(t, "kernel k\nc[i] = a[i] * b[i]\n")
	// ld a, ld b, mul, st = 4 nodes.
	if g.NumNodes() != 4 {
		t.Fatalf("nodes = %d, want 4\n%s", g.NumNodes(), g.DOT())
	}
	if g.NumEdges() != 3 {
		t.Fatalf("edges = %d, want 3", g.NumEdges())
	}
	if g.MemOps() != 3 {
		t.Fatalf("mem ops = %d, want 3", g.MemOps())
	}
}

func TestLowerLoadCSE(t *testing.T) {
	g := lower(t, "kernel k\nc[i] = a[i] * a[i] + a[i+1]\n")
	loads := 0
	for _, n := range g.Nodes {
		if n.Op == dfg.OpLoad {
			loads++
		}
	}
	if loads != 2 {
		t.Fatalf("loads = %d, want 2 (a[i] CSE'd, a[i+1] separate)\n%s", loads, g.DOT())
	}
}

func TestLowerParamIsImmediate(t *testing.T) {
	g := lower(t, "kernel k\nparam alpha\nc[i] = a[i] * alpha\n")
	// ld, mul, st; mul has exactly one in-edge.
	if g.NumNodes() != 3 {
		t.Fatalf("nodes = %d, want 3", g.NumNodes())
	}
	for _, n := range g.Nodes {
		if n.Op == dfg.OpMul && len(g.InEdges(n.ID)) != 1 {
			t.Fatalf("mul in-edges = %d, want 1", len(g.InEdges(n.ID)))
		}
	}
}

func TestLowerAccumulatorSelfEdge(t *testing.T) {
	g := lower(t, "kernel k\ns += a[i] * b[i]\nout[i] = s\n")
	var acc *dfg.Node
	for _, n := range g.Nodes {
		if n.Name == "s" {
			acc = n
		}
	}
	if acc == nil {
		t.Fatalf("no accumulator node:\n%s", g.DOT())
	}
	selfLoop := false
	for _, eid := range g.OutEdges(acc.ID) {
		e := g.Edges[eid]
		if e.To == acc.ID && e.Dist == 1 {
			selfLoop = true
		}
	}
	if !selfLoop {
		t.Fatalf("accumulator lacks distance-1 self edge:\n%s", g.DOT())
	}
	if g.RecMII() != 1 {
		t.Fatalf("RecMII = %d, want 1 (single-node recurrence)", g.RecMII())
	}
}

func TestLowerChainedAccumulators(t *testing.T) {
	g := lower(t, "kernel k\ns += a[i]\ns += b[i]\nout[i] = s\n")
	// First += reads final def (second +=) at distance 1; second reads
	// first at distance 0. Cycle of 2 adds, distance 1 => RecMII 2.
	if got := g.RecMII(); got != 2 {
		t.Fatalf("RecMII = %d, want 2\n%s", got, g.DOT())
	}
}

func TestLowerDelayedRead(t *testing.T) {
	g := lower(t, "kernel k\nt = a[i] + 1\nout[i] = t + t@2\n")
	found := false
	for _, e := range g.Edges {
		if e.Dist == 2 {
			found = true
		}
	}
	if !found {
		t.Fatalf("missing distance-2 edge:\n%s", g.DOT())
	}
}

func TestLowerMinMax(t *testing.T) {
	g := lower(t, "kernel k\nout[i] = max(a[i], b[i])\n")
	var cmp, sel int
	for _, n := range g.Nodes {
		switch n.Op {
		case dfg.OpCmp:
			cmp++
		case dfg.OpSelect:
			sel++
		}
	}
	if cmp != 1 || sel != 1 {
		t.Fatalf("cmp=%d sel=%d, want 1/1\n%s", cmp, sel, g.DOT())
	}
}

func TestLowerSelAndCmp(t *testing.T) {
	g := lower(t, "kernel k\nc = cmp(a[i], b[i])\nout[i] = sel(c, a[i], b[i])\n")
	for _, n := range g.Nodes {
		if n.Op == dfg.OpSelect && len(g.InEdges(n.ID)) != 3 {
			t.Fatalf("select in-edges = %d, want 3", len(g.InEdges(n.ID)))
		}
	}
}

func TestLowerErrors(t *testing.T) {
	cases := []string{
		"kernel k\nt = x\n",                 // undefined scalar
		"kernel k\nparam a\nt = a + 1\n",    // loop-invariant expression
		"kernel k\nparam a\nout[i] = a\n",   // loop-invariant store
		"kernel k\nt = s@1\n",               // pure delayed read assignment
		"kernel k\ns += a[i]\ni = s\n",      // assign to induction var
		"kernel k\nparam p\nt = a[i]+p@1\n", // delayed param read
		"kernel k\nout[i] = t@1\n",          // delayed read of never-assigned scalar... lowered as store of defer
	}
	for _, src := range cases {
		p, err := Parse(src)
		if err != nil {
			continue // parse-time rejection also acceptable
		}
		if _, err := Lower(p); err == nil {
			t.Errorf("Lower(%q) succeeded, want error", src)
		}
	}
}

const dotpSrc = `
kernel dotp
param alpha
t = a[i] * b[i]
s += t * alpha
c[i] = t + s@1
`

func TestUnrollFactor1Identity(t *testing.T) {
	p := parse(t, dotpSrc)
	u, err := Unroll(p, 1)
	if err != nil {
		t.Fatal(err)
	}
	if u != p {
		t.Fatal("factor-1 unroll must return the program unchanged")
	}
}

func TestUnrollDoublesBody(t *testing.T) {
	p := parse(t, dotpSrc)
	u := MustUnroll(p, 2)
	if len(u.Stmts) != 2*len(p.Stmts) {
		t.Fatalf("stmts = %d, want %d", len(u.Stmts), 2*len(p.Stmts))
	}
	g0 := MustLower(p)
	g1 := MustLower(u)
	if g1.NumNodes() <= g0.NumNodes() {
		t.Fatalf("unrolled DFG not larger: %d vs %d", g1.NumNodes(), g0.NumNodes())
	}
}

func TestUnrollShiftsIndices(t *testing.T) {
	p := parse(t, "kernel k\nc[i] = a[i+1] * b[i]\n")
	u := MustUnroll(p, 2)
	second := u.Stmts[1]
	if got := second.LHS.String(); got != "c[i+1]" {
		t.Fatalf("copy-1 store target = %q, want c[i+1]", got)
	}
	reads := collectReads(second.RHS)
	if k := refKey(reads[0].Array, reads[0].Index); k != "a[i+2]" {
		t.Fatalf("copy-1 load = %q, want a[i+2]", k)
	}
}

func TestUnrollAccumulatorChain(t *testing.T) {
	p := parse(t, "kernel k\ns += a[i]\nout[i] = s\n")
	u := MustUnroll(p, 2)
	g := MustLower(u)
	// Two adds in a distance-1 cycle => RecMII 2; and the recurrence must
	// span both copies (copy 0 reads copy 1's value from last iteration).
	if got := g.RecMII(); got != 2 {
		t.Fatalf("RecMII = %d, want 2\n%s", got, g.DOT())
	}
}

func TestUnrollDelayedReadCrossesCopies(t *testing.T) {
	p := parse(t, "kernel k\nt = a[i] + 1\nout[i] = t + t@1\n")
	u := MustUnroll(p, 2)
	g := MustLower(u)
	// In the unrolled body, copy 1's t@1 refers to copy 0's t in the SAME
	// unrolled iteration (distance 0), and copy 0's t@1 refers to copy 1's
	// t one unrolled iteration back (distance 1).
	d0, d1 := 0, 0
	for _, e := range g.Edges {
		switch e.Dist {
		case 0:
			d0++
		case 1:
			d1++
		}
	}
	if d1 != 1 {
		t.Fatalf("want exactly 1 distance-1 edge, got %d\n%s", d1, g.DOT())
	}
	if err := g.Validate(); err != nil {
		t.Fatal(err)
	}
	_ = d0
}

func TestUnrollDeepDelay(t *testing.T) {
	p := parse(t, "kernel k\nt = a[i] + 1\nout[i] = t + t@3\n")
	u := MustUnroll(p, 2)
	g := MustLower(u)
	// t@3 from copy 0: slot -3 -> copy 1, delay 2. From copy 1: slot -2 ->
	// copy 1... floor(-2/2) = -1, r = 0 -> copy 0 delay 1.
	want := map[int]int{2: 1, 1: 1}
	got := map[int]int{}
	for _, e := range g.Edges {
		if e.Dist > 0 {
			got[e.Dist]++
		}
	}
	for d, n := range want {
		if got[d] != n {
			t.Fatalf("distance histogram = %v, want %v\n%s", got, want, g.DOT())
		}
	}
}

func TestUnrollRejectsBadFactor(t *testing.T) {
	p := parse(t, dotpSrc)
	if _, err := Unroll(p, 0); err == nil {
		t.Fatal("expected error for factor 0")
	}
	// The statement bound: the largest factor that fits is accepted, one
	// more is not, and a huge factor fails fast instead of allocating.
	fit := MaxUnrolledStmts / len(p.Stmts)
	if u, err := Unroll(p, fit); err != nil || len(u.Stmts) > MaxUnrolledStmts {
		t.Fatalf("factor %d: err=%v, want an accepted body of at most %d statements", fit, err, MaxUnrolledStmts)
	}
	for _, f := range []int{fit + 1, 1 << 40} {
		if _, err := Unroll(p, f); err == nil {
			t.Fatalf("factor %d: expected an error past %d statements", f, MaxUnrolledStmts)
		}
	}
}

func TestIndexShiftAndString(t *testing.T) {
	ix := Index{Terms: []Term{{"i", 1}, {"j", -1}}, Const: 2}
	if got := ix.String(); got != "i-j+2" {
		t.Fatalf("String = %q", got)
	}
	sh := ix.Shift("i", 3)
	if got := sh.String(); got != "i-j+5" {
		t.Fatalf("shifted = %q", got)
	}
	if ix.Const != 2 {
		t.Fatal("Shift mutated the receiver")
	}
	zero := Index{Terms: []Term{}}
	if zero.String() != "0" {
		t.Fatalf("zero index = %q", zero.String())
	}
}

func TestPropUnrolledKernelsAlwaysValidate(t *testing.T) {
	// Generate random straight-line kernels where every statement only
	// references previously defined temporaries (or delayed reads of
	// them), then check that every unroll factor lowers to a valid DFG
	// with the expected statement count.
	f := func(seedRaw uint32, factorRaw uint8) bool {
		seed := int(seedRaw)
		factor := 1 + int(factorRaw%3)
		var b strings.Builder
		b.WriteString("kernel rnd\n")
		b.WriteString("t0 = a[i] + b[i]\n")
		n := 2 + seed%6
		for s := 1; s <= n; s++ {
			prev := (seed + s) % s // a previously defined temp index
			switch (seed + 3*s) % 4 {
			case 0:
				fmt.Fprintf(&b, "t%d = t%d * c[i+%d]\n", s, prev, s%3)
			case 1:
				fmt.Fprintf(&b, "t%d = t%d + t%d@%d\n", s, prev, prev, 1+s%2)
			case 2:
				fmt.Fprintf(&b, "t%d = t%d - d[i-%d]\n", s, prev, s%2)
			default:
				fmt.Fprintf(&b, "t%d = max(t%d, e[i])\n", s, prev)
			}
		}
		fmt.Fprintf(&b, "s += t%d\n", n)
		b.WriteString("out[i] = s\n")
		p, err := Parse(b.String())
		if err != nil {
			return false
		}
		u, err := Unroll(p, factor)
		if err != nil {
			return false
		}
		if len(u.Stmts) != factor*len(p.Stmts) {
			return false
		}
		g, err := Lower(u)
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
