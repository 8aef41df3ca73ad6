package jaccard

import "testing"

// Edge cases for WeightedRefine's 1-swap local search under unit weights
// (nil weight): degenerate collections where the optimum is known in
// closed form.

func TestRefineSingleSample(t *testing.T) {
	sets := []Set{{3, 7, 9}}
	med := WeightedRefine(sets, nil, Set{}, 0)
	if med.Cost != 0 {
		t.Fatalf("single-sample refinement from empty has cost %v, want 0", med.Cost)
	}
	if len(med.Set) != 3 || med.Set[0] != 3 || med.Set[1] != 7 || med.Set[2] != 9 {
		t.Fatalf("single-sample median %v, want the sample itself", med.Set)
	}
}

func TestRefineAllIdenticalCascades(t *testing.T) {
	sets := []Set{{1, 4}, {1, 4}, {1, 4}, {1, 4}}
	// From the identical set: already optimal, no toggle applies.
	med := WeightedRefine(sets, nil, Set{1, 4}, 0)
	if med.Cost != 0 || len(med.Set) != 2 || med.Set[0] != 1 || med.Set[1] != 4 {
		t.Fatalf("identical cascades from optimum: %+v", med)
	}
	// From empty: local search must walk all the way to the shared set.
	med = WeightedRefine(sets, nil, Set{}, 0)
	if med.Cost != 0 {
		t.Fatalf("identical cascades from empty: cost %v, want 0", med.Cost)
	}
}

func TestRefineSweepBudgetRespected(t *testing.T) {
	sets := []Set{{1, 2, 3}, {1, 2, 3}}
	// One sweep applies at most one toggle, so from empty the best single
	// toggle adds one element and cost stays positive.
	med := WeightedRefine(sets, nil, Set{}, 1)
	if len(med.Set) > 1 {
		t.Fatalf("maxSweeps=1 applied %d toggles", len(med.Set))
	}
	if med.Cost == 0 {
		t.Fatal("one sweep cannot already reach the 3-element optimum")
	}
}

// Edge cases for clustering.

func TestClusterSingleSample(t *testing.T) {
	clusters := ClusterCascades([]Set{{5, 6}}, 3, 0)
	if len(clusters) != 1 {
		t.Fatalf("single sample produced %d clusters", len(clusters))
	}
	c := clusters[0]
	if c.Weight != 1 || c.Median.Cost != 0 || len(c.Members) != 1 || c.Members[0] != 0 {
		t.Fatalf("single-sample cluster %+v", c)
	}
}

func TestClusterAllEmptyCascades(t *testing.T) {
	sets := []Set{{}, {}, {}}
	clusters := ClusterCascades(sets, 2, 0)
	if len(clusters) != 1 {
		t.Fatalf("all-empty cascades produced %d clusters", len(clusters))
	}
	if clusters[0].Median.Cost != 0 || len(clusters[0].Median.Set) != 0 {
		t.Fatalf("all-empty cluster median %+v", clusters[0].Median)
	}
	if got := WithinClusterCost(sets, clusters); got != 0 {
		t.Fatalf("within-cluster cost %v for identical empty cascades", got)
	}
}

func TestWithinClusterCostEmptyInput(t *testing.T) {
	if got := WithinClusterCost(nil, nil); got != 0 {
		t.Fatalf("empty input within-cluster cost %v", got)
	}
}

func TestWithinClusterCostMatchesManualSum(t *testing.T) {
	sets := []Set{{1}, {1, 2}, {9}}
	clusters := ClusterCascades(sets, 2, 0)
	total := 0.0
	for _, c := range clusters {
		for _, i := range c.Members {
			total += Distance(sets[i], c.Median.Set)
		}
	}
	want := total / float64(len(sets))
	if got := WithinClusterCost(sets, clusters); got != want {
		t.Fatalf("within-cluster cost %v, want %v", got, want)
	}
}
