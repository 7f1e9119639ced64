package core

import (
	"context"
	"reflect"
	"testing"
	"time"

	"rewire/internal/arch"
	"rewire/internal/kernels"
	"rewire/internal/mapping"
	"rewire/internal/pathfinder"
	"rewire/internal/stats"
	"rewire/internal/sweep"
)

func TestAmendRepairsForeignInitialMapping(t *testing.T) {
	// Build a partial mapping with PF*'s initial pass at a generous II,
	// then hand it to Amend as "someone else's" mapping.
	g := kernels.MustLoad("fft")
	a := arch.New4x4(4)
	mii := g.MII(a.NumPEs(), a.NumMemPEs(), a.BankPorts())
	var tmp stats.Effort
	sess, _ := pathfinder.BuildInitialTraced(context.Background(), mapping.New(g, a, mii+2), 3, &tmp, nil, nil)
	initial := sess.M.Clone()
	snapshot := initial.Clone()

	// Generous budgets: the amendment is work-bounded (ClusterFailBudget),
	// and a tight wall-clock cutoff flakes under -race's ~20x slowdown.
	// Whether a given cluster draw repairs this particular initial mapping
	// is seed-sensitive, so the failure budget is raised well above the
	// production default: the test asserts Amend's repair capability, not
	// the luck of one draw.
	repaired, res, err := Amend(initial, Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: time.Hour}, ClusterFailBudget: 24})
	if err != nil {
		t.Fatalf("amend failed: %v", err)
	}
	if err := mapping.Validate(repaired); err != nil {
		t.Fatal(err)
	}
	if repaired.II != initial.II {
		t.Fatalf("amend changed II: %d -> %d", initial.II, repaired.II)
	}
	if !res.Success {
		t.Fatal("result not marked successful")
	}
	// The input must be untouched: same placements, routes and ports.
	if !reflect.DeepEqual(initial, snapshot) {
		t.Fatal("input mapping mutated")
	}
}

func TestAmendRejectsCorruptMapping(t *testing.T) {
	g := kernels.MustLoad("mvt")
	a := arch.New4x4(4)
	m := mapping.New(g, a, 3)
	// Two nodes on the same FU slot: Restore must fail.
	m.Place[0] = mapping.Placement{PE: 0, Time: 0}
	m.Place[1] = mapping.Placement{PE: 0, Time: 3}
	if _, _, err := Amend(m, Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: time.Second}}); err == nil {
		t.Fatal("expected inconsistency error")
	}
}

func TestAmendAlreadyValidMappingIsNoOp(t *testing.T) {
	g := kernels.MustLoad("gesummv")
	a := arch.New4x4(4)
	m, res := pathfinder.Map(g, a, pathfinder.Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: 2 * time.Second}})
	if m == nil {
		t.Skipf("setup failed: %v", res)
	}
	repaired, ares, err := Amend(m, Options{RunOptions: sweep.RunOptions{Seed: 1, TimePerII: time.Second}})
	if err != nil {
		t.Fatal(err)
	}
	if ares.ClusterAmendments != 0 {
		t.Fatalf("valid mapping triggered %d amendments", ares.ClusterAmendments)
	}
	if err := mapping.Validate(repaired); err != nil {
		t.Fatal(err)
	}
}
