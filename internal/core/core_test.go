package core

import (
	"context"
	"math"
	"runtime"
	"testing"
	"testing/quick"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/rng"
	"soi/internal/worlds"
)

func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	return b.MustBuild()
}

func buildIndex(t testing.TB, g *graph.Graph, samples int, seed uint64) *index.Index {
	t.Helper()
	x, err := index.Build(context.Background(), g, index.Options{Samples: samples, Seed: seed}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func TestComputeDeterministicChain(t *testing.T) {
	// All-probability-1 chain: every cascade from 0 is {0..4}, so the
	// typical cascade must be exactly that with zero cost.
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	x := buildIndex(t, g, 50, 1)
	res := Compute(x, 0, Options{CostSamples: 100, CostSeed: 2})
	if res.Size() != 5 {
		t.Fatalf("typical cascade %v, want all 5 nodes", res.Set)
	}
	if res.SampleCost != 0 {
		t.Fatalf("sample cost %v, want 0", res.SampleCost)
	}
	if res.ExpectedCost != 0 {
		t.Fatalf("expected cost %v, want 0", res.ExpectedCost)
	}
}

func TestComputeContainsSourceAlways(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 200, 3)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		res := Compute(x, v, Options{})
		if !jaccard.Contains(res.Set, int32(v)) {
			t.Fatalf("typical cascade of %d omits the source: %v", v, res.Set)
		}
	}
}

func TestComputeSinkNode(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 100, 4)
	res := Compute(x, 2, Options{CostSamples: 50, CostSeed: 5})
	// Node v3 (=2) has no out-edges: the cascade is always exactly {2}.
	if len(res.Set) != 1 || res.Set[0] != 2 {
		t.Fatalf("sink typical cascade = %v, want {2}", res.Set)
	}
	if res.SampleCost != 0 || res.ExpectedCost != 0 {
		t.Fatalf("sink costs = %v/%v, want 0/0", res.SampleCost, res.ExpectedCost)
	}
}

func TestExpectedCostDisabled(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 50, 6)
	res := Compute(x, 4, Options{})
	if res.ExpectedCost != -1 {
		t.Fatalf("ExpectedCost = %v, want -1 when disabled", res.ExpectedCost)
	}
	if res.CostTime != 0 {
		t.Fatalf("CostTime = %v, want 0 when disabled", res.CostTime)
	}
}

func TestSampleCostMatchesRecomputation(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 300, 7)
	s := x.NewScratch()
	res := Compute(x, 4, Options{})
	samples := x.Cascades(4, s)
	if got := jaccard.MeanDistance(res.Set, samples); math.Abs(got-res.SampleCost) > 1e-9 {
		t.Fatalf("SampleCost %v, recomputed %v", res.SampleCost, got)
	}
}

// TestHeldOutCostCloseToSampleCost: with plenty of samples the training and
// held-out costs must agree (Theorem 2 in action: no overfitting at large ℓ).
func TestHeldOutCostCloseToSampleCost(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 2000, 8)
	res := Compute(x, 4, Options{CostSamples: 4000, CostSeed: 9})
	if math.Abs(res.ExpectedCost-res.SampleCost) > 0.02 {
		t.Fatalf("held-out %v vs training %v: gap too large", res.ExpectedCost, res.SampleCost)
	}
}

// TestFewSamplesStillNearOptimal exercises Theorem 2's core claim: a small
// constant ℓ already yields a median whose *true* cost is close to that of
// the large-ℓ median.
func TestFewSamplesStillNearOptimal(t *testing.T) {
	g := paperGraph(t)
	big := buildIndex(t, g, 3000, 10)
	small := buildIndex(t, g, 60, 11)
	const costSamples = 20000
	refined := Compute(big, 4, Options{CostSamples: costSamples, CostSeed: 12})
	coarse := Compute(small, 4, Options{CostSamples: costSamples, CostSeed: 12})
	if coarse.ExpectedCost > refined.ExpectedCost+0.1 {
		t.Fatalf("60-sample median cost %v far above 3000-sample cost %v",
			coarse.ExpectedCost, refined.ExpectedCost)
	}
}

func TestMedianAlgorithmsAgreeOnEasyInstance(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.95)
	b.AddEdge(1, 2, 0.95)
	b.AddEdge(2, 3, 0.95)
	g := b.MustBuild()
	x := buildIndex(t, g, 400, 13)
	prefix := Compute(x, 0, Options{Algorithm: MedianPrefix})
	majority := Compute(x, 0, Options{Algorithm: MedianMajority})
	exact := Compute(x, 0, Options{Algorithm: MedianExact})
	if !equal(prefix.Set, exact.Set) || !equal(majority.Set, exact.Set) {
		t.Fatalf("medians disagree: prefix=%v majority=%v exact=%v",
			prefix.Set, majority.Set, exact.Set)
	}
}

func TestPrefixNeverWorseThanExactOnIndexedCascades(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 40, 14)
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		p := Compute(x, v, Options{Algorithm: MedianPrefix})
		e := Compute(x, v, Options{Algorithm: MedianExact})
		if p.SampleCost < e.SampleCost-1e-9 {
			t.Fatalf("node %d: prefix %v beat exact %v", v, p.SampleCost, e.SampleCost)
		}
	}
}

func TestComputeFromSetSupersetEffect(t *testing.T) {
	// §5 of the paper: seed sets become more stable (lower cost) as they
	// grow. Check the weaker, always-true direction on a concrete graph:
	// the typical cascade of a seed set contains every seed.
	g := paperGraph(t)
	x := buildIndex(t, g, 500, 15)
	res := ComputeFromSet(x, []graph.NodeID{2, 4}, Options{})
	for _, s := range []int32{2, 4} {
		if !jaccard.Contains(res.Set, s) {
			t.Fatalf("seed %d missing from %v", s, res.Set)
		}
	}
}

func TestComputeAllMatchesSingle(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 150, 16)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(3))
	all := computeAll(t, x, Options{})
	if len(all) != g.NumNodes() {
		t.Fatalf("got %d results", len(all))
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		single := Compute(x, v, Options{})
		if !equal(all[v].Set, single.Set) {
			t.Fatalf("node %d: ComputeAll %v vs Compute %v", v, all[v].Set, single.Set)
		}
		if math.Abs(all[v].SampleCost-single.SampleCost) > 1e-12 {
			t.Fatalf("node %d: costs differ", v)
		}
	}
}

func TestComputeAllWorkerCountInvariant(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 100, 17)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	a := computeAll(t, x, Options{CostSamples: 50, CostSeed: 3})
	runtime.GOMAXPROCS(4)
	b := computeAll(t, x, Options{CostSamples: 50, CostSeed: 3})
	for v := range a {
		if !equal(a[v].Set, b[v].Set) || a[v].ExpectedCost != b[v].ExpectedCost {
			t.Fatalf("node %d: parallel results differ", v)
		}
	}
}

func TestEstimateCostUnreachableSet(t *testing.T) {
	// Candidate set disjoint from every possible cascade: cost must be 1.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(2, 3, 0.5)
	g := b.MustBuild()
	got := estimateCost(t, g, []graph.NodeID{0}, []graph.NodeID{2, 3}, 500, 18)
	if got != 1 {
		t.Fatalf("cost = %v, want 1", got)
	}
}

func TestEstimateCostLineExact(t *testing.T) {
	// Line 0 -p-> 1. Cascades: {0} w.p. 1-p, {0,1} w.p. p.
	// ρ({0}) = p * (1 - 1/2) = p/2; ρ({0,1}) = (1-p)/2.
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.3)
	g := b.MustBuild()
	const trials = 200000
	got0 := estimateCost(t, g, []graph.NodeID{0}, []graph.NodeID{0}, trials, 19)
	if want := 0.3 / 2; math.Abs(got0-want) > 0.005 {
		t.Fatalf("ρ({0}) = %v, want ~%v", got0, want)
	}
	got01 := estimateCost(t, g, []graph.NodeID{0}, []graph.NodeID{0, 1}, trials, 20)
	if want := 0.7 / 2; math.Abs(got01-want) > 0.005 {
		t.Fatalf("ρ({0,1}) = %v, want ~%v", got01, want)
	}
}

// TestMedianBeatsArbitraryCandidates: the computed typical cascade should
// have (empirical) cost no worse than a handful of natural alternatives.
func TestMedianBeatsArbitraryCandidates(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 500, 21)
	s := x.NewScratch()
	res := Compute(x, 4, Options{})
	samples := x.Cascades(4, s)
	for _, cand := range [][]graph.NodeID{
		{4},
		{0, 1, 2, 3, 4},
		{0, 4},
		{1, 2, 4},
	} {
		if c := jaccard.MeanDistance(cand, samples); c < res.SampleCost-1e-9 {
			t.Fatalf("candidate %v cost %v beats median cost %v", cand, c, res.SampleCost)
		}
	}
}

func TestQuickMedianCostAtMostOne(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(20) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, 0.05+0.9*r.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		x, err := index.Build(context.Background(), g, index.Options{Samples: 20, Seed: seed}, checkpoint.Config{})
		if err != nil {
			return false
		}
		res := Compute(x, graph.NodeID(r.Intn(n)), Options{CostSamples: 30, CostSeed: seed})
		return res.SampleCost >= 0 && res.SampleCost <= 1 &&
			res.ExpectedCost >= 0 && res.ExpectedCost <= 1 &&
			jaccard.IsSorted(res.Set)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestMedianAlgorithmString(t *testing.T) {
	if MedianPrefix.String() != "prefix" || MedianMajority.String() != "majority" ||
		MedianExact.String() != "exact" {
		t.Fatal("String() labels wrong")
	}
	if MedianAlgorithm(9).String() == "" {
		t.Fatal("unknown algorithm has empty label")
	}
}

func equal(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkComputeTypicalCascade(b *testing.B) {
	r := rng.New(1)
	bb := graph.NewBuilder(2000)
	for i := 0; i < 10000; i++ {
		u, v := graph.NodeID(r.Intn(2000)), graph.NodeID(r.Intn(2000))
		if u != v {
			bb.AddEdge(u, v, 0.1)
		}
	}
	g := bb.MustBuild()
	x, err := index.Build(context.Background(), g, index.Options{Samples: 200, Seed: 1}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Compute(x, graph.NodeID(i%2000), Options{})
	}
}

// computeAll is the plain all-nodes sweep.
func computeAll(tb testing.TB, x *index.Index, opts Options) []Result {
	tb.Helper()
	out, err := ComputeAll(context.Background(), x, opts, checkpoint.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}

// estimateCost is the plain IC held-out cost estimate.
func estimateCost(tb testing.TB, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64) float64 {
	tb.Helper()
	cost, _, err := EstimateCost(context.Background(), g, seeds, set, samples, seed, worlds.IC, checkpoint.Budget{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return cost
}
