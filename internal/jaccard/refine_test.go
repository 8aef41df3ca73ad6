package jaccard

import (
	"math"
	"testing"
	"testing/quick"

	"soi/internal/rng"
)

// The 1-swap local search lives in WeightedRefine; under unit weights (nil
// weight) it is the unweighted refinement, so these properties are checked
// on the plain Jaccard cost.

// refineFromPrefix polishes the prefix median with unit-weight 1-swap
// local search.
func refineFromPrefix(sets []Set) Median {
	return WeightedRefine(sets, nil, Prefix(sets).Set, 0)
}

func TestRefineNeverWorsens(t *testing.T) {
	r := rng.New(1)
	for trial := 0; trial < 100; trial++ {
		sets := randomSets(r, 8, 25, 10)
		start := Prefix(sets)
		refined := WeightedRefine(sets, nil, start.Set, 0)
		if refined.Cost > start.Cost+1e-12 {
			t.Fatalf("trial %d: refine worsened %v -> %v", trial, start.Cost, refined.Cost)
		}
		if got := MeanDistance(refined.Set, sets); math.Abs(got-refined.Cost) > 1e-9 {
			t.Fatalf("trial %d: reported %v, recomputed %v", trial, refined.Cost, got)
		}
		if !IsSorted(refined.Set) {
			t.Fatalf("trial %d: unsorted output %v", trial, refined.Set)
		}
	}
}

func TestRefineReachesOptimumMoreOften(t *testing.T) {
	r := rng.New(2)
	prefixHits, refinedHits := 0, 0
	const trials = 150
	for trial := 0; trial < trials; trial++ {
		sets := randomSets(r, 6, 9, 6)
		opt := Exact(sets)
		p := Prefix(sets)
		pr := refineFromPrefix(sets)
		if pr.Cost < opt.Cost-1e-9 {
			t.Fatalf("refined beat the optimum: %v < %v", pr.Cost, opt.Cost)
		}
		if math.Abs(p.Cost-opt.Cost) < 1e-9 {
			prefixHits++
		}
		if math.Abs(pr.Cost-opt.Cost) < 1e-9 {
			refinedHits++
		}
	}
	if refinedHits < prefixHits {
		t.Fatalf("refinement hit the optimum less often: %d vs %d", refinedHits, prefixHits)
	}
	// Local search should close most of the remaining gap on tiny instances.
	if refinedHits < trials*80/100 {
		t.Fatalf("refined optimum rate too low: %d/%d", refinedHits, trials)
	}
}

func TestRefineIdempotentAtOptimum(t *testing.T) {
	r := rng.New(3)
	for trial := 0; trial < 50; trial++ {
		sets := randomSets(r, 5, 8, 5)
		opt := Exact(sets)
		again := WeightedRefine(sets, nil, opt.Set, 0)
		if math.Abs(again.Cost-opt.Cost) > 1e-12 {
			t.Fatalf("trial %d: refining the optimum changed cost %v -> %v",
				trial, opt.Cost, again.Cost)
		}
	}
}

func TestRefineFromEmptyAndFull(t *testing.T) {
	sets := []Set{{1, 2, 3}, {1, 2, 3}, {1, 2}}
	fromEmpty := WeightedRefine(sets, nil, Set{}, 0)
	if fromEmpty.Cost > Prefix(sets).Cost+1e-12 {
		t.Fatalf("refine from empty stuck at %v", fromEmpty.Cost)
	}
	full := Set{1, 2, 3}
	fromFull := WeightedRefine(sets, nil, full, 0)
	if fromFull.Cost > MeanDistance(full, sets)+1e-12 {
		t.Fatal("refine from full worsened")
	}
}

func TestRefineRemovesForeignElements(t *testing.T) {
	// Start contains an element no input set has: it must be dropped.
	sets := []Set{{1}, {1}, {1}}
	refined := WeightedRefine(sets, nil, Set{1, 99}, 0)
	if Contains(refined.Set, 99) {
		t.Fatalf("foreign element survived: %v", refined.Set)
	}
	if refined.Cost != 0 {
		t.Fatalf("cost %v, want 0", refined.Cost)
	}
}

func TestRefineEmptyCollection(t *testing.T) {
	m := WeightedRefine(nil, nil, Set{1, 2}, 0)
	if m.Cost != 0 || len(m.Set) != 2 {
		t.Fatalf("WeightedRefine(nil) = %+v", m)
	}
}

func TestQuickRefinedNeverWorseThanPrefix(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		sets := randomSets(r, 7, 20, 8)
		p := Prefix(sets)
		pr := refineFromPrefix(sets)
		return pr.Cost <= p.Cost+1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}
