// Command qordiff compares two QoR ledger snapshots (rewire-ledger-v1
// JSONL files, or directories of them) per (kernel, arch, mapper)
// group and fails when the newer snapshot regresses:
//
//   - best II worse than the baseline by ANY amount — II is the paper's
//     primary quality metric and is deterministic per seed, so an
//     increase is a real mapping-quality regression, never noise, or
//   - a group that mapped successfully in the baseline and never
//     succeeds in the current snapshot (success lost), or
//   - success rate below the baseline's — flakiness introduced by a
//     change is a regression even when the best run still lands, or
//   - median compile time (non-cached runs only) worse than the
//     baseline by more than -time-threshold (default 50%, absorbing
//     machine noise; wall-clock is the only non-deterministic axis).
//
// Groups present in only one snapshot are reported but never fail the
// diff: coverage changes between runs are routine. Improvements are
// reported too.
//
// Usage:
//
//	qordiff [-time-threshold 0.5] BASELINE CURRENT
//
// where BASELINE and CURRENT are ledger files or directories. Exit
// status: 0 clean, 1 regression, 2 usage or parse error, so CI can gate
// on it.
package main

import (
	"flag"
	"fmt"
	"os"

	"rewire/internal/ledger"
)

// regression is one failed comparison.
type regression struct {
	Group  string // kernel@arch/mapper
	What   string
	Base   string
	Cur    string
	Detail string
}

func (r regression) String() string {
	s := fmt.Sprintf("%s: %s %s -> %s", r.Group, r.What, r.Base, r.Cur)
	if r.Detail != "" {
		s += " (" + r.Detail + ")"
	}
	return s
}

// diff compares the current snapshot's groups against the baseline's.
// Both Aggregate outputs are sorted by (kernel, arch, mapper), so the
// walk — and therefore every line of output — is deterministic.
func diff(base, cur []ledger.Group, timeThreshold float64) (regs []regression, notes []string) {
	key := func(g ledger.Group) string { return g.Kernel + "@" + g.Arch + "/" + g.Mapper }
	curBy := make(map[string]ledger.Group, len(cur))
	for _, g := range cur {
		curBy[key(g)] = g
	}
	seen := make(map[string]bool, len(base))
	for _, b := range base {
		k := key(b)
		seen[k] = true
		c, ok := curBy[k]
		if !ok {
			notes = append(notes, "only in baseline: "+k)
			continue
		}

		switch {
		case b.BestII > 0 && c.BestII == 0:
			regs = append(regs, regression{k, "success", "mapped", "never maps",
				fmt.Sprintf("baseline best II=%d", b.BestII)})
		case b.BestII > 0 && c.BestII > b.BestII:
			regs = append(regs, regression{k, "best II",
				fmt.Sprintf("%d", b.BestII), fmt.Sprintf("%d", c.BestII),
				fmt.Sprintf("MII=%d", c.MII)})
		case b.BestII > 0 && c.BestII < b.BestII:
			notes = append(notes, fmt.Sprintf("%-40s best II %d -> %d (improved)", k, b.BestII, c.BestII))
		case b.BestII == 0 && c.BestII > 0:
			notes = append(notes, fmt.Sprintf("%-40s now maps at II=%d (baseline never did)", k, c.BestII))
		}

		if br, cr := b.SuccessRate(), c.SuccessRate(); cr < br {
			regs = append(regs, regression{k, "success rate",
				fmt.Sprintf("%.0f%%", 100*br), fmt.Sprintf("%.0f%%", 100*cr),
				fmt.Sprintf("%d/%d -> %d/%d runs", b.Successes, b.Runs, c.Successes, c.Runs)})
		}

		bMS, cMS := ledger.Median(b.CompileMS), ledger.Median(c.CompileMS)
		if bMS > 0 && cMS > 0 {
			delta := (cMS - bMS) / bMS
			notes = append(notes, fmt.Sprintf("%-40s median compile %9.1fms -> %9.1fms  %+6.1f%%",
				k, bMS, cMS, 100*delta))
			if delta > timeThreshold {
				regs = append(regs, regression{k, "median compile ms",
					fmt.Sprintf("%.1f", bMS), fmt.Sprintf("%.1f", cMS),
					fmt.Sprintf("%+.1f%% > +%.0f%% threshold", 100*delta, 100*timeThreshold)})
			}
		}
	}
	for _, c := range cur {
		if !seen[key(c)] {
			notes = append(notes, "only in current: "+key(c))
		}
	}
	return regs, notes
}

func loadGroups(path string) ([]ledger.Group, error) {
	entries, err := ledger.ReadSnapshot(path)
	if err != nil {
		return nil, err
	}
	return ledger.Aggregate(entries), nil
}

func main() {
	timeThreshold := flag.Float64("time-threshold", 0.5,
		"median compile-time regression tolerance (0.5 = +50%)")
	flag.Parse()
	if flag.NArg() != 2 {
		fmt.Fprintln(os.Stderr, "usage: qordiff [-time-threshold 0.5] BASELINE CURRENT  (ledger files or directories)")
		os.Exit(2)
	}
	base, err := loadGroups(flag.Arg(0))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qordiff:", err)
		os.Exit(2)
	}
	cur, err := loadGroups(flag.Arg(1))
	if err != nil {
		fmt.Fprintln(os.Stderr, "qordiff:", err)
		os.Exit(2)
	}

	regs, notes := diff(base, cur, *timeThreshold)
	fmt.Printf("baseline %s (%d groups) vs current %s (%d groups), compile threshold +%.0f%%\n\n",
		flag.Arg(0), len(base), flag.Arg(1), len(cur), *timeThreshold*100)
	for _, n := range notes {
		fmt.Println(n)
	}
	if len(regs) > 0 {
		fmt.Printf("\n%d QoR regression(s):\n", len(regs))
		for _, r := range regs {
			fmt.Println("  FAIL", r)
		}
		os.Exit(1)
	}
	fmt.Println("\nno QoR regressions")
}
