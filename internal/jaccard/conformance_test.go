package jaccard

import (
	"slices"
	"testing"

	"soi/internal/bound"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/rng"
	"soi/internal/statcheck"
	"soi/internal/worlds"
)

// bruteMedian is an independent brute force over every subset of the union
// universe, built by recursion over sorted elements rather than bitmasks so
// it shares no code path with Exact. It returns the optimal mean distance.
func bruteMedian(sets []Set) (Set, float64) {
	var universe Set
	for _, s := range sets {
		universe = Union(universe, s)
	}
	var best Set
	bestCost := 3.0
	var rec func(i int, cur Set)
	rec = func(i int, cur Set) {
		if i == len(universe) {
			if c := MeanDistance(cur, sets); c < bestCost {
				bestCost = c
				best = append(Set(nil), cur...)
			}
			return
		}
		rec(i+1, cur)
		rec(i+1, append(cur, universe[i]))
	}
	rec(0, Set{})
	return best, bestCost
}

// TestConformanceExactMedianBruteForce cross-validates the bitmask Exact
// search against the recursive brute force on several fixed collections.
func TestConformanceExactMedianBruteForce(t *testing.T) {
	fixtures := [][]Set{
		{{1, 2, 3}, {2, 3, 4}, {3, 4, 5}},
		{{1}, {2}, {3}, {1, 2, 3}},
		{{}, {1, 2}, {1, 2}, {7}},
		{{10, 20}, {10, 20}, {10, 20}},
		{{1, 2, 3, 4}, {5, 6}, {1, 5}, {}, {2, 3, 6}},
	}
	for i, sets := range fixtures {
		med := Exact(sets)
		_, bruteCost := bruteMedian(sets)
		statcheck.Numeric(t, "Exact vs brute-force cost", med.Cost, bruteCost, 1<<8)
		statcheck.Numeric(t, "Exact cost recomputation", MeanDistance(med.Set, sets), med.Cost, 1<<8)
		if !IsSorted(med.Set) {
			t.Errorf("fixture %d: Exact median %v not sorted", i, med.Set)
		}
	}
}

// TestConformanceSampledMedianTheorem2 is the paper's Theorem-2 guarantee
// checked against ground truth: the exhaustive median of ell sampled
// cascades has *true* cost within the ERM bound of the exact optimal
// typical cascade, with no hand-tuned slack.
func TestConformanceSampledMedianTheorem2(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	g := b.MustBuild()
	src := graph.NodeID(4)

	dist, err := oracle.CascadeDistribution(g, []graph.NodeID{src})
	if err != nil {
		t.Fatal(err)
	}
	_, bestCost, err := dist.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}

	const ell = 4000
	master := rng.New(91)
	smp := worlds.NewSampler(g, worlds.IC)
	sets := make([]Set, ell)
	for i := 0; i < ell; i++ {
		casc, _ := smp.Forward([]graph.NodeID{src}, master.Split(uint64(i)), nil, nil, nil)
		slices.Sort(casc)
		sets[i] = Set(casc)
	}

	med := Exact(sets)
	erm := bound.ERM(ell, 1<<5, statcheck.DefaultDelta)
	statcheck.AtMost(t, "sampled exhaustive median", dist.Rho(med.Set), bestCost, erm)

	// The prefix heuristic transfers through its measured empirical gap:
	// rho(prefix) <= rho(C*) + gap + 2*eps_union.
	pfx := Prefix(sets)
	gap := pfx.Cost - med.Cost
	if gap < 0 {
		t.Fatalf("prefix empirical cost %v beats the exhaustive optimum %v", pfx.Cost, med.Cost)
	}
	statcheck.AtMost(t, "sampled prefix median", dist.Rho(pfx.Set), bestCost+gap, erm)
}

// bruteWeightedMedian is the weighted analog of bruteMedian.
func bruteWeightedMedian(sets []Set, weight []float64) (Set, float64) {
	var universe Set
	for _, s := range sets {
		universe = Union(universe, s)
	}
	var best Set
	bestCost := 3.0
	var rec func(i int, cur Set)
	rec = func(i int, cur Set) {
		if i == len(universe) {
			if c := WeightedMeanDistance(cur, sets, weight); c < bestCost {
				bestCost = c
				best = append(Set(nil), cur...)
			}
			return
		}
		rec(i+1, cur)
		rec(i+1, append(cur, universe[i]))
	}
	rec(0, Set{})
	return best, bestCost
}

// TestConformanceWeightedMedianExhaustive holds the weighted prefix+refine
// pipeline to the exhaustive weighted optimum on small fixed instances.
// These are deterministic algorithms on fixed inputs, so the assertions are
// exact (up to round-off), not statistical.
func TestConformanceWeightedMedianExhaustive(t *testing.T) {
	fixtures := []struct {
		sets   []Set
		weight []float64 // indexed by element id
	}{
		{
			sets:   []Set{{0, 1}, {1, 2}, {0, 2}},
			weight: []float64{1, 1, 1},
		},
		{
			// Rare-but-valuable elements vs frequent-but-cheap ones.
			sets:   []Set{{0, 1}, {0, 1}, {2, 3}},
			weight: []float64{0.1, 0.1, 5, 5},
		},
		{
			// Includes a zero-weight element (5), invisible to the distance.
			sets:   []Set{{1, 2, 3}, {2, 3, 4}, {2, 5}, {}},
			weight: []float64{1, 2, 1, 0.5, 1, 0},
		},
	}
	for i, fx := range fixtures {
		_, bruteCost := bruteWeightedMedian(fx.sets, fx.weight)
		med := WeightedRefine(fx.sets, fx.weight, WeightedPrefix(fx.sets, fx.weight).Set, 0)
		statcheck.Numeric(t, "weighted refined cost recomputation",
			WeightedMeanDistance(med.Set, fx.sets, fx.weight), med.Cost, 1<<8)
		if med.Cost > bruteCost+1e-12 {
			t.Errorf("fixture %d: weighted prefix+refine cost %v misses exhaustive optimum %v",
				i, med.Cost, bruteCost)
		}
	}
}
