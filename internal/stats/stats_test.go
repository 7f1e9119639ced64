package stats

import (
	"strings"
	"testing"
	"time"
)

func TestOptimalAndNearOptimal(t *testing.T) {
	r := Result{Success: true, II: 4, MII: 4}
	if !r.Optimal() || !r.NearOptimal() {
		t.Fatal("II==MII must be optimal and near-optimal")
	}
	r.II = 5
	if r.Optimal() || !r.NearOptimal() {
		t.Fatal("II==MII+1 must be near-optimal only")
	}
	r.II = 6
	if r.NearOptimal() {
		t.Fatal("II==MII+2 is not near-optimal")
	}
	r.Success = false
	r.II = r.MII
	if r.Optimal() || r.NearOptimal() {
		t.Fatal("failed runs are never optimal")
	}
}

func TestStringFormats(t *testing.T) {
	r := Result{Mapper: "Rewire", Kernel: "fft", Arch: "4x4r4", Success: true, II: 4, MII: 3,
		Duration: 12 * time.Millisecond, Effort: Effort{ClusterAmendments: 7}}
	s := r.String()
	if !strings.Contains(s, "II=4 (MII=3)") || !strings.Contains(s, "amendments=7") {
		t.Fatalf("String = %q", s)
	}
	r.Success = false
	if !strings.Contains(r.String(), "FAILED") {
		t.Fatalf("String = %q", r.String())
	}
}
