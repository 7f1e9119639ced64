package core

import (
	"context"
	"fmt"
	"math/rand"
	"time"

	"rewire/internal/mapping"
	"rewire/internal/route"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

// Amend repairs an arbitrary (possibly invalid) mapping at its own II —
// the paper's orthogonality claim: "Rewire ... can take any initial
// mapping from other mappers". The input mapping is not modified; the
// repaired copy is returned. It fails if the mapping's internal
// bookkeeping is inconsistent or if no valid amendment is found within
// the time budget.
func Amend(m *mapping.Mapping, opt Options) (*mapping.Mapping, stats.Result, error) {
	opt = opt.withDefaults()
	res := stats.Result{Mapper: "Rewire(amend)", Kernel: m.DFG.Name, Arch: m.Arch.Name}
	res.MII = mapping.MII(m.DFG, m.Arch)
	start := time.Now()

	sess, err := mapping.Restore(m)
	if err != nil {
		return nil, res, fmt.Errorf("rewire: initial mapping is inconsistent: %w", err)
	}
	tr := opt.Tracer
	root := tr.StartSpan(nil, "rewire.amend").
		WithStr("kernel", m.DFG.Name).WithStr("arch", m.Arch.Name).WithInt("ii", int64(m.II))
	defer root.End()
	run := opt.Obs.RunStart(m.DFG, m.Arch, "rewire", res.Mapper, res.MII, "ii", m.II)
	att := run.AttemptStart(m.II, 0)
	am := &amender{
		g:      m.DFG,
		sess:   sess,
		router: route.ForSession(sess),
		rng:    rand.New(rand.NewSource(opt.Seed)),
		eff:    &res.Effort,
		opt:    opt,
		pace:   sweep.NewPacer(context.Background(), time.Now().Add(opt.TimePerII), paceEvery),
		tr:     tr,
		hists:  newHists(tr),
		span:   root,
		att:    att,
	}
	am.router.Instrument(tr)
	ok := am.amend()
	// The router retires here: book its work on failure too (the audit
	// contract: the tally is filled on every path, not only successes),
	// and before the diagnostic-only failure attribution searches, so
	// the tally does not depend on whether a collector is attached.
	res.RouterExpansions = am.router.Expansions
	res.Effort.Fill(tr, "", true)
	if !ok {
		route.AttributeFailures(att, am.sess, am.router)
	}
	att.End(ok, false, 0, am.sess)
	defer am.sess.Close()
	if !ok {
		res.Duration = time.Since(start)
		run.RunEnd(res, "")
		return nil, res, fmt.Errorf("rewire: could not amend %q on %s at II=%d within %s",
			m.DFG.Name, m.Arch.Name, m.II, opt.TimePerII)
	}
	res.Success = true
	res.II = m.II
	res.Duration = time.Since(start)
	if err := mapping.Validate(am.sess.M); err != nil {
		panic("rewire: amend produced invalid mapping: " + err.Error())
	}
	run.RunEnd(res, "")
	return am.sess.M, res, nil
}
