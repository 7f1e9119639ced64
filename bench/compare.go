package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// savedRun is one run's output, as saved from its standard output.
type savedRun struct {
	workload string
	seed     int64
	trace    int
	digest   string
	res      result
}

// readRuns reads every run output in path: a file, or each regular file
// of a directory tree. Files without a rewire-bench header are skipped.
func readRuns(path string) ([]savedRun, error) {
	var runs []savedRun
	err := filepath.WalkDir(path, func(p string, d os.DirEntry, err error) error {
		if err != nil || d.IsDir() {
			return err
		}
		r, ok, err := readRun(p)
		if ok {
			runs = append(runs, r)
		}
		return err
	})
	if err == nil && len(runs) == 0 {
		err = fmt.Errorf("%s holds no run output", path)
	}
	return runs, err
}

func readRun(path string) (savedRun, bool, error) {
	f, err := os.Open(path)
	if err != nil {
		return savedRun{}, false, err
	}
	defer f.Close()
	var (
		r          savedRun
		header     bool
		last       string
		sc         = bufio.NewScanner(f)
		headerMark = "# rewire-bench "
	)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, headerMark) {
			header = true
			for _, kv := range strings.Fields(strings.TrimPrefix(line, headerMark)) {
				k, v, _ := strings.Cut(kv, "=")
				switch k {
				case "workload":
					r.workload = v
				case "seed":
					r.seed, _ = strconv.ParseInt(v, 10, 64)
				case "trace":
					r.trace, _ = strconv.Atoi(v)
				}
			}
		}
		if d, ok := strings.CutPrefix(line, digestMark); ok {
			r.digest = d
		}
		if strings.TrimSpace(line) != "" {
			last = line
		}
	}
	if err := sc.Err(); err != nil || !header {
		return r, false, err
	}
	if err := json.Unmarshal([]byte(last), &r.res); err != nil {
		return r, false, fmt.Errorf("%s: last line is not a result: %w", path, err)
	}
	return r, true, nil
}

// judgement is the comparison of one metric between two sets of runs.
type judgement struct {
	parent, change [3]float64 // first quartile, median, third quartile
	pairs          int
	winShare       float64 // pairs the change won; ties count for neither
	verdict        string
}

// judge compares a metric's parent and change values, paired by index.
// The change improved when it wins at least nine tenths of the pairs and
// the medians differ by more than the parent's quartile distance. It is
// worse when its median is worse than the parent's by more than bound,
// a share of the parent's median. When the parent's own spread is wider
// than the bound the metric is unresolved, unless every change run beat
// every parent run. Without a bound (per-layer metrics) a change is only
// judged improved or worse by the pair rule; otherwise it is "no claim".
func judge(parent, change []float64, lowerBetter bool, bound *float64) judgement {
	var j judgement
	j.parent[0], j.parent[1], j.parent[2] = quartiles(parent)
	j.change[0], j.change[1], j.change[2] = quartiles(change)
	better := func(a, b float64) bool { // a reads better than b
		if lowerBetter {
			return a < b
		}
		return a > b
	}
	j.pairs = min(len(parent), len(change))
	won, lost := 0, 0
	for i := 0; i < j.pairs; i++ {
		switch {
		case better(change[i], parent[i]):
			won++
		case better(parent[i], change[i]):
			lost++
		}
	}
	var lossShare float64
	if j.pairs > 0 {
		j.winShare = float64(won) / float64(j.pairs)
		lossShare = float64(lost) / float64(j.pairs)
	}
	pMed, cMed := j.parent[1], j.change[1]
	iqr := j.parent[2] - j.parent[0]
	apart := math.Abs(cMed-pMed) > iqr
	switch {
	case j.winShare >= 0.9 && apart:
		j.verdict = "improved"
	case bound == nil && lossShare >= 0.9 && apart:
		j.verdict = "worse"
	case bound == nil:
		j.verdict = "no claim"
	case relative(iqr, pMed) > *bound && !allBetter(change, parent, better):
		j.verdict = "unresolved"
	case worseBy(pMed, cMed, lowerBetter) > *bound:
		j.verdict = "worse"
	default:
		j.verdict = "unchanged"
	}
	return j
}

// relative is d as a share of the magnitude of base; a nonzero d over a
// zero base is infinitely large.
func relative(d, base float64) float64 {
	switch {
	case d == 0:
		return 0
	case base == 0:
		return math.Inf(1)
	}
	return d / math.Abs(base)
}

// worseBy is how much worse the change median reads than the parent's,
// as a share of the parent's; negative when it reads better.
func worseBy(pMed, cMed float64, lowerBetter bool) float64 {
	if lowerBetter {
		return relative(cMed-pMed, pMed)
	}
	return relative(pMed-cMed, pMed)
}

func allBetter(change, parent []float64, better func(a, b float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0 && len(parent) > 0
}

// compare prints, per workload and metric, both sides' quartiles, the
// share of pairs the change won and the verdict. Runs are paired by
// seed order. It exits 1 when any end-to-end metric got worse, or when
// the runs of one side did different work.
func compare(sp *spec, parentPath, changePath string, stdout, stderr io.Writer) int {
	parent, err := readRuns(parentPath)
	if err == nil {
		var change []savedRun
		change, err = readRuns(changePath)
		if err == nil {
			return printComparison(sp, parent, change, stdout)
		}
	}
	fmt.Fprintln(stderr, err)
	return 2
}

func printComparison(sp *spec, parent, change []savedRun, w io.Writer) int {
	pg, cg := group(parent), group(change)
	var keys []string
	for k := range pg {
		if _, ok := cg[k]; ok {
			keys = append(keys, k)
		} else {
			fmt.Fprintf(w, "%s: no change runs\n", k)
		}
	}
	for k := range cg {
		if _, ok := pg[k]; !ok {
			fmt.Fprintf(w, "%s: no parent runs\n", k)
		}
	}
	sort.Strings(keys)
	code := 0
	fmt.Fprintf(w, "%-22s %-28s %-32s %-32s %5s  %s\n", "runs", "metric",
		"parent q1 / median / q3", "change q1 / median / q3", "won", "verdict")
	for _, k := range keys {
		ps, cs := pg[k], cg[k]
		pd, pok := sameDigest(ps)
		cd, cok := sameDigest(cs)
		switch {
		case !pok || !cok:
			// Results repeat exactly, so runs of one commit that compiled
			// different results show a determinism bug.
			fmt.Fprintf(w, "%s: runs of one side printed different digests: results did not repeat\n", k)
			code = 1
		case pd != cd:
			fmt.Fprintf(w, "%s: the change compiles different results (digest %s, was %s)\n", k, cd, pd)
		}
		catalog := sp.EndToEnd
		if ps[0].trace == 1 {
			catalog = sp.PerLayer
		}
		for _, m := range catalog {
			pv, cv := metricValues(ps, m.Name), metricValues(cs, m.Name)
			if len(pv) == 0 || len(cv) == 0 {
				continue
			}
			j := judge(pv, cv, m.Better == "lower", m.Bound)
			fmt.Fprintf(w, "%-22s %-28s %-32s %-32s %4.0f%%  %s\n", k, m.Name,
				fmt.Sprintf("%.4g / %.4g / %.4g", j.parent[0], j.parent[1], j.parent[2]),
				fmt.Sprintf("%.4g / %.4g / %.4g", j.change[0], j.change[1], j.change[2]),
				100*j.winShare, j.verdict)
			if j.verdict == "worse" && m.Bound != nil {
				code = 1
			}
		}
	}
	return code
}

// sameDigest returns the digest the runs share, and false when two of
// them printed different ones.
func sameDigest(runs []savedRun) (string, bool) {
	d := runs[0].digest
	for _, r := range runs[1:] {
		if r.digest != d {
			return d, false
		}
	}
	return d, true
}

func metricValues(runs []savedRun, name string) []float64 {
	var out []float64
	for _, r := range runs {
		if m, ok := r.res.Metrics[name]; ok {
			out = append(out, m.Value)
		}
	}
	return out
}

// group collects runs by workload and trace flag, sorted by seed.
func group(runs []savedRun) map[string][]savedRun {
	out := map[string][]savedRun{}
	for _, r := range runs {
		k := fmt.Sprintf("%s/trace%d", r.workload, r.trace)
		out[k] = append(out[k], r)
	}
	for _, rs := range out {
		sort.SliceStable(rs, func(i, j int) bool { return rs[i].seed < rs[j].seed })
	}
	return out
}
