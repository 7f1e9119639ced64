package main

import (
	"sort"
	"time"

	"rewire"
)

// span is one finished trace span, reduced to what the rollup needs.
type span struct {
	id, parent uint64 // parent 0 = root span
	name       string
	start, end time.Duration
}

// tracerSpans copies a tracer's finished spans.
func tracerSpans(tr *rewire.Tracer) []span {
	recs := tr.Spans()
	out := make([]span, len(recs))
	for i, r := range recs {
		out[i] = span{id: r.ID, parent: r.Parent, name: r.Name, start: r.Start, end: r.Start + r.Dur}
	}
	return out
}

// selfTimes sums, per span name, each span's self time: its duration
// minus the part of its interval that its children cover. Children that
// run in parallel overlap, so the covered part is the length of the
// union of their intervals, not the sum of their durations.
func selfTimes(spans []span) map[string]time.Duration {
	children := make(map[uint64][]int, len(spans))
	for i, s := range spans {
		if s.parent != 0 {
			children[s.parent] = append(children[s.parent], i)
		}
	}
	out := make(map[string]time.Duration)
	var iv [][2]time.Duration
	for _, s := range spans {
		iv = iv[:0]
		for _, c := range children[s.id] {
			lo, hi := max(spans[c].start, s.start), min(spans[c].end, s.end)
			if hi > lo {
				iv = append(iv, [2]time.Duration{lo, hi})
			}
		}
		out[s.name] += (s.end - s.start) - unionLength(iv)
	}
	return out
}

// unionLength is the total length covered by the intervals; it sorts iv.
func unionLength(iv [][2]time.Duration) time.Duration {
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total time.Duration
	curLo, curHi := time.Duration(0), time.Duration(-1)
	for _, x := range iv {
		if x[0] > curHi {
			if curHi > curLo {
				total += curHi - curLo
			}
			curLo, curHi = x[0], x[1]
		} else if x[1] > curHi {
			curHi = x[1]
		}
	}
	if curHi > curLo {
		total += curHi - curLo
	}
	return total
}
