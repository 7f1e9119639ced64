package kernelir

import (
	"fmt"
	"sync"
)

// MaxUnrolledStmts bounds an unrolled body: Unroll rejects a factor
// whose copies would hold more statements than this, so an untrusted
// factor cannot exhaust memory. For scale: every statement lowers to at
// least one operation, and the paper's 8x8 fabric at the default II cap
// of 32 has 64 x 32 = 2,048 operation slots.
const MaxUnrolledStmts = 2048

// Unroll returns a new Program whose loop body is the original body
// replicated `factor` times, with the induction variable shifted by the
// copy number in every subscript. It is the IR-level equivalent of loop
// unrolling in the compiler frontend (the paper uses unroll factor 2 to
// stress the mappers, marked "(u)" in Figure 5).
//
// Scalar temporaries are renamed per copy. Accumulator statements are
// rewritten into a chain of plain adds: copy u reads copy u-1's value,
// and copy 0 reads the last copy's value from the previous (unrolled)
// iteration, preserving the recurrence with distance 1. Delayed reads
// `x@d` are retargeted to the copy that holds the requested value, with
// the delay divided by the unroll factor.
func Unroll(prog *Program, factor int) (*Program, error) {
	if factor < 1 {
		return nil, fmt.Errorf("kernel %q: unroll factor %d < 1", prog.Name, factor)
	}
	if n := len(prog.Stmts); n > 0 && factor > MaxUnrolledStmts/n {
		return nil, fmt.Errorf("kernel %q: unroll factor %d makes more than %d statements from a %d-statement body",
			prog.Name, factor, MaxUnrolledStmts, n)
	}
	if factor == 1 {
		return prog, nil
	}
	u := unrollerPool.Get().(*unroller)
	u.prog, u.factor = prog, factor
	defer func() {
		u.prog = nil
		clear(u.accCount)
		clear(u.accSeq)
		clear(u.curAcc)
		unrollerPool.Put(u)
	}()
	// Pre-scan: which scalars are accumulators, and how many accumulator
	// statements each has per body copy (their per-copy final alias is the
	// last one).
	accCount := u.accCount
	for _, s := range prog.Stmts {
		if s.Acc {
			accCount[s.LHS.Name]++
		}
	}
	out := &Program{
		Name:      prog.Name + "_u" + fmt.Sprint(factor),
		Induction: prog.Induction,
		Params:    prog.Params,
		Stmts:     make([]Stmt, 0, factor*len(prog.Stmts)),
	}
	for copyNo := 0; copyNo < factor; copyNo++ {
		u.copyNo = copyNo
		clear(u.accSeq)
		// Before any accumulator statement of this copy runs, an
		// accumulator read refers to the previous copy's final alias (or,
		// for copy 0, the last copy's final alias one iteration back).
		for name := range accCount {
			if copyNo == 0 {
				u.curAcc[name] = Scalar{Name: accAlias(name, factor-1, accCount[name]-1), Delay: 1}
			} else {
				u.curAcc[name] = Scalar{Name: accAlias(name, copyNo-1, accCount[name]-1)}
			}
		}
		for _, s := range prog.Stmts {
			ns, err := u.stmt(s)
			if err != nil {
				return nil, err
			}
			out.Stmts = append(out.Stmts, ns)
		}
	}
	return out, nil
}

// MustUnroll is Unroll that panics on error.
func MustUnroll(prog *Program, factor int) *Program {
	p, err := Unroll(prog, factor)
	if err != nil {
		panic(err)
	}
	return p
}

type unroller struct {
	prog     *Program
	factor   int
	copyNo   int
	accCount map[string]int // accumulator -> += statements per copy
	accSeq   map[string]int // accumulator -> += statements seen in this copy
	curAcc   map[string]Expr
}

// unrollerPool recycles the per-call scratch of Unroll (the three
// accumulator-tracking maps) across calls, mirroring lowererPool.
var unrollerPool = sync.Pool{New: func() any {
	return &unroller{
		accCount: map[string]int{},
		accSeq:   map[string]int{},
		curAcc:   map[string]Expr{},
	}
}}

// accAlias names the k-th accumulator definition of scalar `name` in body
// copy `copyNo`. '$' cannot appear in source identifiers, so aliases never
// collide with user names.
func accAlias(name string, copyNo, k int) string {
	return fmt.Sprintf("%s$%d_%d", name, copyNo, k)
}

// tempAlias names a per-copy scalar temporary.
func tempAlias(name string, copyNo int) string {
	return fmt.Sprintf("%s$%d", name, copyNo)
}

func (u *unroller) stmt(s Stmt) (Stmt, error) {
	rhs, err := u.expr(s.RHS, s.Line)
	if err != nil {
		return Stmt{}, err
	}
	switch {
	case s.Acc:
		name := s.LHS.Name
		k := u.accSeq[name]
		u.accSeq[name] = k + 1
		alias := accAlias(name, u.copyNo, k)
		prev := u.curAcc[name]
		u.curAcc[name] = Scalar{Name: alias}
		return Stmt{
			LHS:  Ref{Name: alias},
			RHS:  Bin{Op: "+", L: prev, R: rhs},
			Line: s.Line,
		}, nil
	case s.LHS.IsArray():
		return Stmt{
			LHS:  Ref{Name: s.LHS.Name, Index: u.shiftAll(s.LHS.Index)},
			RHS:  rhs,
			Line: s.Line,
		}, nil
	default:
		return Stmt{
			LHS:  Ref{Name: tempAlias(s.LHS.Name, u.copyNo)},
			RHS:  rhs,
			Line: s.Line,
		}, nil
	}
}

func (u *unroller) shiftAll(idx []Index) []Index {
	out := make([]Index, len(idx))
	for i, ix := range idx {
		out[i] = ix.Shift(u.prog.Induction, u.copyNo)
	}
	return out
}

func (u *unroller) expr(e Expr, line int) (Expr, error) {
	switch x := e.(type) {
	case Num:
		return x, nil
	case ArrayRead:
		return ArrayRead{Array: x.Array, Index: u.shiftAll(x.Index)}, nil
	case Bin:
		l, err := u.expr(x.L, line)
		if err != nil {
			return nil, err
		}
		r, err := u.expr(x.R, line)
		if err != nil {
			return nil, err
		}
		return Bin{Op: x.Op, L: l, R: r}, nil
	case Call:
		args := make([]Expr, len(x.Args))
		for i, a := range x.Args {
			na, err := u.expr(a, line)
			if err != nil {
				return nil, err
			}
			args[i] = na
		}
		return Call{Fn: x.Fn, Args: args}, nil
	case Scalar:
		return u.scalar(x, line)
	default:
		return nil, fmt.Errorf("line %d: unknown expression %T in unroll", line, e)
	}
}

func (u *unroller) scalar(x Scalar, line int) (Expr, error) {
	if u.prog.Params[x.Name] {
		return x, nil
	}
	isAcc := u.accCount[x.Name] > 0
	if x.Delay == 0 {
		if isAcc {
			return u.curAcc[x.Name], nil
		}
		return Scalar{Name: tempAlias(x.Name, u.copyNo)}, nil
	}
	// Delayed read: the value the scalar had x.Delay original iterations
	// ago. Original-iteration slot u.copyNo - Delay maps to body copy r of
	// the unrolled iteration floor(slot/factor) iterations back.
	slot := u.copyNo - x.Delay
	q := floorDiv(slot, u.factor)
	r := slot - q*u.factor
	delay := -q
	if delay < 0 {
		return nil, fmt.Errorf("line %d: internal unroll error for %s (negative delay)", line, x)
	}
	if isAcc {
		return Scalar{Name: accAlias(x.Name, r, u.accCount[x.Name]-1), Delay: delay}, nil
	}
	return Scalar{Name: tempAlias(x.Name, r), Delay: delay}, nil
}

func floorDiv(a, b int) int {
	q := a / b
	if a%b != 0 && (a < 0) != (b < 0) {
		q--
	}
	return q
}
