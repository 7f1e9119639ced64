package main

import (
	"fmt"
	"math"
	"sort"
)

// minBeyond is how many samples must lie above a reported percentile:
// a tail read from fewer samples is one outlier, not a percentile.
const minBeyond = 10

// percentile returns the p-quantile (0 < p < 1) of xs, interpolating
// linearly between the two closest ranks. It refuses when fewer than
// minBeyond samples lie above the rank the value is read at.
func percentile(xs []float64, p float64) (float64, error) {
	n := len(xs)
	if n == 0 {
		return 0, fmt.Errorf("p%g of no samples", p*100)
	}
	rank := p * float64(n-1)
	lo := int(math.Floor(rank + 1e-9))
	if beyond := n - 1 - lo; beyond < minBeyond {
		return 0, fmt.Errorf("p%g of %d samples has %d beyond it, want at least %d", p*100, n, beyond, minBeyond)
	}
	s := sortedCopy(xs)
	frac := rank - float64(lo)
	if frac < 0 {
		frac = 0
	}
	return s[lo] + frac*(s[lo+1]-s[lo]), nil
}

// tailLadder lists the percentiles a tail metric may report, highest
// first.
var tailLadder = []float64{0.99, 0.98, 0.95, 0.9, 0.85, 0.8, 0.75, 0.7}

// tail returns the highest percentile of tailLadder that has at least
// minBeyond samples beyond it, and which percentile that is. The choice
// depends only on the sample count, which a workload fixes for a given
// run length, so runs of the same length report the same percentile.
func tail(xs []float64) (float64, float64, error) {
	for _, p := range tailLadder {
		if v, err := percentile(xs, p); err == nil {
			return v, p, nil
		}
	}
	_, err := percentile(xs, tailLadder[len(tailLadder)-1])
	return 0, 0, err
}

// tailMean returns the mean of the samples beyond the percentile tail
// picks, and which percentile that is: the expected shortfall there. It
// averages ten or more samples where the percentile reads one or two, so
// it does not jump when two of the slowest samples trade places. Over ten
// seeds of one serve-mix trace its quartile distance was 0.07 of its
// median, against 0.12 for the percentile.
func tailMean(xs []float64) (float64, float64, error) {
	_, p, err := tail(xs)
	if err != nil {
		return 0, 0, err
	}
	s := sortedCopy(xs)
	beyond := s[int(math.Floor(p*float64(len(s)-1)+1e-9))+1:]
	return sum(beyond) / float64(len(beyond)), p, nil
}

// quartiles returns the first quartile, median and third quartile of xs
// with the method of Python's statistics.quantiles(xs, n=4) (the
// "exclusive" method), so spreads computed here match the ones computed
// from the same runs with Python. A single sample is its own quartiles.
func quartiles(xs []float64) (q1, med, q3 float64) {
	s := sortedCopy(xs)
	n := len(s)
	switch n {
	case 0:
		return 0, 0, 0
	case 1:
		return s[0], s[0], s[0]
	}
	q := func(i int) float64 {
		m := n + 1
		j := i * m / 4
		if j < 1 {
			j = 1
		} else if j > n-1 {
			j = n - 1
		}
		delta := i*m - j*4
		return (s[j-1]*float64(4-delta) + s[j]*float64(delta)) / 4
	}
	return q(1), median(s), q(3)
}

// iqm is the interquartile mean: the mean of the middle half of the
// samples. Like a median it ignores the extremes, but it averages many
// samples, so it does not jump when the two middle samples of a small
// set of very different compiles trade places.
func iqm(xs []float64) float64 {
	s := sortedCopy(xs)
	cut := len(s) / 4
	mid := s[cut : len(s)-cut]
	if len(mid) == 0 {
		return 0
	}
	return sum(mid) / float64(len(mid))
}

// median is the middle sample, or the mean of the two middle samples.
func median(xs []float64) float64 {
	s := sortedCopy(xs)
	n := len(s)
	if n == 0 {
		return 0
	}
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// geomean is the geometric mean of positive xs. The logs are summed in
// sorted order, so the same multiset gives the same bits whatever order
// the samples were taken in.
func geomean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	sum := 0.0
	for _, x := range sortedCopy(xs) {
		sum += math.Log(x)
	}
	return math.Exp(sum / float64(len(xs)))
}

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func sortedCopy(xs []float64) []float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	return s
}
