package kernelir

import "testing"

// FuzzParseKernel checks the front end on arbitrary source and unroll
// factors: Parse, Unroll and Lower return an error or a DFG that passes
// dfg.Validate, an unrolled body holds at most MaxUnrolledStmts
// statements, and nothing panics. The seed corpus,
// testdata/fuzz/FuzzParseKernel, holds the bundled kernels with their
// unroll factors and hostile inputs. Run it with
//
//	go test -run '^$' -fuzz '^FuzzParseKernel$' -fuzztime 30s ./internal/kernelir
func FuzzParseKernel(f *testing.F) {
	f.Fuzz(func(t *testing.T, src string, unroll int) {
		prog, err := Parse(src)
		if err != nil {
			return
		}
		if unroll > 1 {
			if prog, err = Unroll(prog, unroll); err != nil {
				return
			}
			if len(prog.Stmts) > MaxUnrolledStmts {
				t.Fatalf("unroll %d gives %d statements, over %d", unroll, len(prog.Stmts), MaxUnrolledStmts)
			}
		}
		g, err := Lower(prog)
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("Lower returned an invalid DFG: %v", err)
		}
	})
}
