package main

import (
	"math"
	"testing"
)

func seq(n int) []float64 {
	xs := make([]float64, n)
	for i := range xs {
		xs[i] = float64(n - i) // descending, so percentile must sort
	}
	return xs
}

func TestPercentileNeedsTenSamplesBeyond(t *testing.T) {
	for _, tc := range []struct {
		n  int
		p  float64
		ok bool
	}{
		{20, 0.5, true}, {19, 0.5, false},
		{92, 0.9, true}, {91, 0.9, false},
		{100, 0.9, true},
		{1250, 0.99, true}, {900, 0.99, false},
		{68, 0.85, true}, {68, 0.9, false},
		{48, 0.8, true}, {48, 0.85, false},
		{34, 0.7, true}, {34, 0.75, false},
	} {
		_, err := percentile(seq(tc.n), tc.p)
		if (err == nil) != tc.ok {
			t.Errorf("p%g of %d samples: err=%v, want ok=%t", tc.p*100, tc.n, err, tc.ok)
		}
	}
}

func TestPercentileInterpolates(t *testing.T) {
	got, err := percentile(seq(101), 0.5)
	if err != nil || got != 51 {
		t.Fatalf("median of 1..101 = %v, %v; want 51", got, err)
	}
	got, err = percentile(seq(100), 0.9) // rank 89.1 between 90 and 91
	if err != nil || math.Abs(got-90.1) > 1e-9 {
		t.Fatalf("p90 of 1..100 = %v, %v; want 90.1", got, err)
	}
}

func TestTailPicksHighestSupportedPercentile(t *testing.T) {
	for _, tc := range []struct {
		n    int
		want float64
	}{{1250, 0.99}, {800, 0.98}, {100, 0.9}, {68, 0.85}, {48, 0.8}, {34, 0.7}} {
		_, p, err := tail(seq(tc.n))
		if err != nil || p != tc.want {
			t.Errorf("tail of %d samples: p=%v err=%v, want p%g", tc.n, p, err, tc.want*100)
		}
	}
	if _, _, err := tail(seq(30)); err == nil {
		t.Error("tail of 30 samples: want an error, no ladder percentile has 10 beyond it")
	}
}

func TestTailMeanAveragesTheSamplesBeyondThePercentile(t *testing.T) {
	// p90 of 1..100 sits at rank 89.1; the ten samples beyond it are
	// 91..100.
	got, p, err := tailMean(seq(100))
	if err != nil || p != 0.9 || got != 95.5 {
		t.Fatalf("tail mean of 1..100 = %v at p%g, %v; want 95.5 at p90", got, p*100, err)
	}
	// p70 of 34 samples sits at rank 23.1: the mean of 25..34.
	if got, _, _ := tailMean(seq(34)); got != 29.5 {
		t.Fatalf("tail mean of 1..34 = %v, want 29.5", got)
	}
	if _, _, err := tailMean(seq(30)); err == nil {
		t.Error("tail mean of 30 samples: want an error, no ladder percentile has 10 beyond it")
	}
}

func TestQuartilesMatchPythonExclusiveMethod(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	q1, med, q3 := quartiles(seq(10))
	if q1 != 2.75 || med != 5.5 || q3 != 8.25 {
		t.Fatalf("quartiles(1..10) = %v %v %v, want 2.75 5.5 8.25", q1, med, q3)
	}
	// statistics.quantiles([1, 2, 3], n=4) == [1.0, 2.0, 3.0]
	if q1, med, q3 := quartiles(seq(3)); q1 != 1 || med != 2 || q3 != 3 {
		t.Fatalf("quartiles(1..3) = %v %v %v, want 1 2 3", q1, med, q3)
	}
}

func TestIQMAveragesTheMiddleHalf(t *testing.T) {
	// Of 1..8 the middle half is 3..6.
	if got := iqm(seq(8)); got != 4.5 {
		t.Fatalf("iqm(1..8) = %v, want 4.5", got)
	}
	// Extremes do not move it.
	if got := iqm([]float64{1e9, 3, 4, 5, 6, 7, 8, -1e9}); got != 5.5 {
		t.Fatalf("iqm with outliers = %v, want 5.5", got)
	}
}

func TestGeomeanIgnoresSampleOrder(t *testing.T) {
	a := []float64{1.25, 4.0 / 3, 1.5, 2, 1, 7.0 / 3, 1.2}
	b := []float64{7.0 / 3, 1, 1.2, 2, 1.5, 1.25, 4.0 / 3}
	if geomean(a) != geomean(b) {
		t.Fatalf("geomean depends on order: %v vs %v", geomean(a), geomean(b))
	}
}
