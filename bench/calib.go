package main

import (
	"container/heap"
	"math/rand"
	"runtime"
	"sort"
	"time"
)

// The machine this benchmark runs on shares its cores and memory with
// other tenants, and its speed drifts by 5-30% within minutes and
// changes within seconds: enough to swamp any bound on raw wall-clock.
// A compile run therefore also times a fixed reference task between
// compiles and scales each compile by refNominalMS / (the mean of the
// samples just before and after it), so times read as they would at the
// speed the machine had when the baseline was recorded. The task
// is this file's own code, so no change to the program under test moves
// it. Like a mapper it chases pointers through a graph, a priority
// queue, a hash map and a sort. Measured over ten minutes of repeated
// compiles, the spread of the geometric-mean compile time between
// 25-compile windows was 6.2% raw, 3.9% scaled by each window's median
// reference time and 2.6% scaled per compile.
//
// serve-mix cannot time the task while requests run: it would compete
// with the daemon for the cores and slow down with the daemon's own
// load. Samples taken only before and after the whole window did not
// track it (in one of two ten-seed measurements they widened the spread
// of its latencies from 7% to 11-14%), so serve-mix cuts the window into
// segments and times the task between them, with the daemon idle. This
// tracks the daemon's compiles less well than the samples around each
// compile track an in-process one: over eight ten-seed sets it cut the
// spread of serve-mix's compile time in five and widened it in two. It
// widened the spread of cache reads in every set, so those are not
// scaled.

// refNominalMS is the reference task's median time on the baseline
// machine (two-core x86 container, Go 1.24).
const refNominalMS = 23.7

// refGraph builds the task's input, a seeded random graph.
func refGraph() [][]refEdge {
	rng := rand.New(rand.NewSource(1))
	g := make([][]refEdge, 20000)
	for i := range g {
		for k := 0; k < 6; k++ {
			g[i] = append(g[i], refEdge{to: rng.Intn(len(g)), w: 1 + rng.Intn(100)})
		}
	}
	return g
}

type refEdge struct{ to, w int }

type refQueue []refEdge // to = node, w = distance

func (q refQueue) Len() int           { return len(q) }
func (q refQueue) Less(i, j int) bool { return q[i].w < q[j].w }
func (q refQueue) Swap(i, j int)      { q[i], q[j] = q[j], q[i] }
func (q *refQueue) Push(x any)        { *q = append(*q, x.(refEdge)) }
func (q *refQueue) Pop() any {
	old := *q
	x := old[len(old)-1]
	*q = old[:len(old)-1]
	return x
}

// refTask runs the reference task: shortest paths from node 0, then a
// sort of the distances. It returns a checksum so the work cannot be
// optimised away.
func refTask(g [][]refEdge) int {
	dist := make(map[int]int, len(g))
	q := &refQueue{{to: 0, w: 0}}
	for q.Len() > 0 {
		it := heap.Pop(q).(refEdge)
		if _, done := dist[it.to]; done {
			continue
		}
		dist[it.to] = it.w
		for _, e := range g[it.to] {
			if _, done := dist[e.to]; !done {
				heap.Push(q, refEdge{to: e.to, w: it.w + e.w})
			}
		}
	}
	ds := make([]int, 0, len(dist))
	for _, d := range dist {
		ds = append(ds, d)
	}
	sort.Ints(ds)
	return ds[len(ds)/2]
}

// refSample times the reference task once, in ms. The graph is built
// for the sample and dropped after it, so it never inflates the heap a
// compile runs against.
func refSample() float64 {
	g := refGraph()
	runtime.GC()
	t0 := time.Now()
	refTask(g)
	return float64(time.Since(t0).Nanoseconds()) / 1e6
}

// calibrate takes n reference samples.
func calibrate(n int) []float64 {
	out := make([]float64, n)
	for i := range out {
		out[i] = refSample()
	}
	return out
}

// speedScale is the factor that scales a run's times to the baseline
// machine's speed, from the reference times it took.
func speedScale(refMS []float64) float64 {
	return refNominalMS / median(refMS)
}
