package index

import (
	"context"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
)

func TestCoverageMatchesCascadeSizes(t *testing.T) {
	g := randomGraph(t, 21, 60, 240)
	x, err := Build(context.Background(), g, Options{Samples: 10, Seed: 5}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	cov := x.NewCoverage()

	// Gain of the first seed equals the sum of its cascade sizes.
	v := graph.NodeID(7)
	wantFirst := 0
	for i := 0; i < x.NumWorlds(); i++ {
		wantFirst += x.CascadeSize(v, i, s)
	}
	if got := cov.MarginalGain(v, s); got != int64(wantFirst) {
		t.Fatalf("first gain %d, want %d", got, wantFirst)
	}
	if got := cov.Add(v, s); got != int64(wantFirst) {
		t.Fatalf("Add returned %d, want %d", got, wantFirst)
	}

	// After adding seeds S, covered total equals Σ_i |R_S(G_i)|.
	seeds := []graph.NodeID{v}
	r := rng.New(3)
	for step := 0; step < 6; step++ {
		w := graph.NodeID(r.Intn(g.NumNodes()))
		pred := cov.MarginalGain(w, s)
		got := cov.Add(w, s)
		if pred != got {
			t.Fatalf("step %d: MarginalGain %d != Add %d", step, pred, got)
		}
		seeds = append(seeds, w)
		wantTotal := int64(0)
		for i := 0; i < x.NumWorlds(); i++ {
			wantTotal += int64(x.CascadeSizeFromSet(seeds, i, s))
		}
		if cov.CoveredNodeSlots() != wantTotal {
			t.Fatalf("step %d: covered %d, want %d", step, cov.CoveredNodeSlots(), wantTotal)
		}
	}
}

func TestCoverageGainZeroWhenCovered(t *testing.T) {
	g := randomGraph(t, 22, 30, 120)
	x, err := Build(context.Background(), g, Options{Samples: 5, Seed: 6}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	cov := x.NewCoverage()
	cov.Add(3, s)
	if got := cov.MarginalGain(3, s); got != 0 {
		t.Fatalf("re-adding seed has gain %d", got)
	}
	if got := cov.Add(3, s); got != 0 {
		t.Fatalf("re-Add returned %d", got)
	}
}

func TestCoverageReset(t *testing.T) {
	g := randomGraph(t, 23, 30, 120)
	x, err := Build(context.Background(), g, Options{Samples: 5, Seed: 7}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	cov := x.NewCoverage()
	before := cov.MarginalGain(4, s)
	cov.Add(4, s)
	cov.Reset()
	if cov.CoveredNodeSlots() != 0 {
		t.Fatal("Reset did not clear total")
	}
	if got := cov.MarginalGain(4, s); got != before {
		t.Fatalf("after Reset gain %d, want %d", got, before)
	}
}
