package core

import (
	"math"
	"testing"

	"soi/internal/graph"
	"soi/internal/jaccard"
)

func TestComputeWeightedReducesToUnweighted(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 300, 61)
	unit := make([]float64, g.NumNodes())
	for i := range unit {
		unit[i] = 1
	}
	plain := Compute(x, 4, Options{Algorithm: MedianPrefix})
	weighted := ComputeWeighted(x, []graph.NodeID{4}, unit, Options{})
	if math.Abs(plain.SampleCost-weighted.SampleCost) > 1e-9 {
		t.Fatalf("unit weights: %v vs %v", weighted.SampleCost, plain.SampleCost)
	}
}

func TestComputeWeightedValueDriven(t *testing.T) {
	// Node 0 reaches cheap node 1 (p=0.45, weight 1) and precious node 2
	// (p=0.45, weight 100). At 45% inclusion both are dropped unweighted.
	// Weighted, the cascades' worth concentrates on node 2 whenever it is
	// present; the median still reflects frequency (threshold 1/2 for
	// independent elements) but the measured weighted COST must be driven
	// by node 2's inclusion probability, not node 1's.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0.45)
	b.AddEdge(0, 2, 0.45)
	g := b.MustBuild()
	x := buildIndex(t, g, 4000, 62)
	w := []float64{1, 1, 100}
	res := ComputeWeighted(x, []graph.NodeID{0}, w, Options{CostSamples: 4000, CostSeed: 63})
	if res.ExpectedCost < 0 || res.ExpectedCost > 1 {
		t.Fatalf("cost %v", res.ExpectedCost)
	}
	// Exact weighted cost of the candidate {0}: cascades {0} (0.3025),
	// {0,1} (0.2475), {0,2} (0.2475), {0,1,2} (0.2025) with weights
	// w0=1,w1=1,w2=100: d({0},·) = 0, 1/2, 100/102, 101/103.
	exact := 0.3025*0 + 0.2475*0.5 + 0.2475*(100.0/102) + 0.2025*(101.0/103)
	if jaccard.Distance(res.Set, []graph.NodeID{0}) == 0 {
		if math.Abs(res.ExpectedCost-exact) > 0.02 {
			t.Fatalf("weighted cost of {0} = %v, exact %v", res.ExpectedCost, exact)
		}
	}
	// And the weighted solution can never be worse (in weighted cost) than
	// the unweighted sphere evaluated under weights.
	plain := Compute(x, 0, Options{})
	plainW := jaccard.WeightedMeanDistance(plain.Set, x.Cascades(0, x.NewScratch()), w)
	if res.SampleCost > plainW+1e-9 {
		t.Fatalf("weighted median %v worse than unweighted-under-weights %v",
			res.SampleCost, plainW)
	}
}

func TestEstimateCostWeightedBounds(t *testing.T) {
	g := paperGraph(t)
	w := []float64{1, 2, 3, 4, 5}
	got := EstimateCostWeighted(g, []graph.NodeID{4}, []graph.NodeID{4}, w, 500, 64, 0)
	if got < 0 || got > 1 {
		t.Fatalf("cost %v", got)
	}
	if EstimateCostWeighted(g, []graph.NodeID{4}, nil, w, 0, 1, 0) != -1 {
		t.Fatal("zero samples should return -1")
	}
}
