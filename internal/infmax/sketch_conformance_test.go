package infmax

import (
	"context"
	"testing"

	"soi/internal/bound"
	"soi/internal/oracle"
	"soi/internal/sketch"
	"soi/internal/statcheck"
)

// TestConformanceSketchSeedQuality holds the SKIM-style sketch-space greedy
// to the submodularity floor against the exact optimum. The greedy sees
// spreads with two error sources, both uniform over every seed set it can
// evaluate: world sampling (Hoeffding at the index's ell, union over all
// 2^n sets, the 2 from the ERM argument) plus sketch compression (Cohen
// bottom-k relative error at k=confK, delta split the same way, scaled to
// additive by the optimum and doubled per greedy step). Greedy on
// estimates uniformly within eps of the truth obeys
//
//	sigma(greedy) >= (1-1/e)*sigma(opt) - 2*k_seeds*eps.
func TestConformanceSketchSeedQuality(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	const ell = 20000
	const sketchK = 1 << 16
	x := buildIndex(t, g, ell, 61)
	sk, err := sketch.Build(context.Background(), x, sketch.Options{K: sketchK, Seed: 17})
	if err != nil {
		t.Fatal(err)
	}
	uniform := bound.Hoeffding(ell, statcheck.DefaultDelta).Union(1 << n).Scale(2 * float64(n))
	for k := 1; k <= 3; k++ {
		_, opt, err := o.OptimalSeedSet(k)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := SelectSeedsSketch(sk, k)
		if err != nil {
			t.Fatal(err)
		}
		compress := bound.BottomK(sketchK, statcheck.DefaultDelta).Union(1 << n).
			Scale(opt).Scale(2 * float64(k))
		statcheck.AtLeast(t, "sketch seed quality", trueSpread(t, o, sel.Seeds),
			oneMinusInvE*opt, uniform.Plus(compress))

		// The greedy's own objective must agree with the sketch's spread
		// estimate of the selected set: the residual bookkeeping (cached
		// union merges) must not drift from a from-scratch estimate.
		if got, want := sel.Objective(), sk.EstimateSpread(sel.Seeds); got != want {
			t.Errorf("k=%d: greedy objective %.9g != fresh sketch estimate %.9g", k, got, want)
		}
	}
}

// TestSelectSeedsSketchGains checks CELF bookkeeping on the sketch
// estimator: realized gains are nonnegative (merging ranks into the union
// can only grow the estimate — the estimator is monotone, though estimator
// noise means it is not exactly submodular) and sum to the objective.
func TestSelectSeedsSketchGains(t *testing.T) {
	g := conformanceGraph(t)
	x := buildIndex(t, g, 500, 5)
	sk, err := sketch.Build(context.Background(), x, sketch.Options{K: 256, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	sel, err := SelectSeedsSketch(sk, 5)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Seeds) != 5 || len(sel.Gains) != 5 {
		t.Fatalf("selection %d seeds, %d gains; want 5", len(sel.Seeds), len(sel.Gains))
	}
	sum := 0.0
	for i, gain := range sel.Gains {
		if gain < 0 {
			t.Errorf("gain %d negative: %v", i, gain)
		}
		sum += gain
	}
	if diff := sum - sel.Objective(); diff > 1e-9 || diff < -1e-9 {
		t.Errorf("gains sum %v != objective %v", sum, sel.Objective())
	}
	if _, err := SelectSeedsSketch(sk, 0); err == nil {
		t.Error("k=0 accepted")
	}
}
