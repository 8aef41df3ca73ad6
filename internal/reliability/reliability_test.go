package reliability

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

func TestSTSeriesParallel(t *testing.T) {
	// 0 -> 1 with p=0.5 and 0 -> 2 -> 1 with 0.8*0.5 = 0.4.
	// rel(0,1) = 1 - (1-0.5)(1-0.4) = 0.7.
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.8)
	b.AddEdge(2, 1, 0.5)
	g := b.MustBuild()
	got, err := ST(context.Background(), g, 0, 1, 200000, 1, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	if math.Abs(got-0.7) > 0.005 {
		t.Fatalf("rel = %v, want ~0.7", got)
	}
}

func TestSTUnreachable(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0.9)
	g := b.MustBuild()
	got, err := ST(context.Background(), g, 0, 2, 1000, 2, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	if got != 0 {
		t.Fatalf("rel to unreachable node = %v", got)
	}
}

func TestSTSelf(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.1)
	g := b.MustBuild()
	got, err := ST(context.Background(), g, 0, 0, 100, 3, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	if got != 1 {
		t.Fatalf("rel(s,s) = %v, want 1", got)
	}
}

func TestFromSourceValidation(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.5)
	g := b.MustBuild()
	if _, _, err := FromSource(context.Background(), g, nil, 10, 1, worlds.IC, checkpoint.Budget{}); err == nil {
		t.Error("accepted empty sources")
	}
	if _, _, err := FromSource(context.Background(), g, []graph.NodeID{5}, 10, 1, worlds.IC, checkpoint.Budget{}); err == nil {
		t.Error("accepted out-of-range source")
	}
	if _, _, err := FromSource(context.Background(), g, []graph.NodeID{0}, 0, 1, worlds.IC, checkpoint.Budget{}); err == nil {
		t.Error("accepted zero samples")
	}
}

func TestSearchThreshold(t *testing.T) {
	// 0 -> 1 (0.9) -> 2 (0.9): rel(0,2) = 0.81.
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.9)
	b.AddEdge(1, 2, 0.9)
	b.AddEdge(2, 3, 0.05)
	g := b.MustBuild()
	got, _, err := Search(context.Background(), g, []graph.NodeID{0}, 0.5, 100000, 4, worlds.IC, checkpoint.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{0, 1, 2}
	if len(got) != len(want) {
		t.Fatalf("Search = %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("Search = %v, want %v", got, want)
		}
	}
	for _, bad := range []float64{0, -1, 1.5, math.NaN(), math.Inf(1)} {
		if _, _, err := Search(context.Background(), g, []graph.NodeID{0}, bad, 10, 1, worlds.IC, checkpoint.Budget{}); err == nil {
			t.Errorf("accepted threshold %v", bad)
		}
	}
}

// TestTheorem1Reduction exercises the paper's #P-hardness reduction
// numerically: rel(G,s,t) estimated directly must match the value recovered
// from the expected costs ρ_{G',s}(V) and ρ_{G',s}(V\{t}) on the augmented
// graph G'.
func TestTheorem1Reduction(t *testing.T) {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 0.6)
	b.AddEdge(1, 2, 0.7)
	b.AddEdge(0, 3, 0.4)
	b.AddEdge(3, 2, 0.5)
	b.AddEdge(2, 4, 0.3)
	g := b.MustBuild()
	s, tt := graph.NodeID(0), graph.NodeID(2)

	direct, err := ST(context.Background(), g, s, tt, 400000, 5, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}

	aug, err := AugmentForReduction(g, tt)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	h1 := make([]graph.NodeID, n)
	for i := range h1 {
		h1[i] = graph.NodeID(i)
	}
	h2 := make([]graph.NodeID, 0, n-1)
	for i := 0; i < n; i++ {
		if graph.NodeID(i) != tt {
			h2 = append(h2, graph.NodeID(i))
		}
	}
	const costSamples = 400000
	rhoH1 := estimateCost(t, aug, []graph.NodeID{s}, h1, costSamples, 6)
	rhoH2 := estimateCost(t, aug, []graph.NodeID{s}, h2, costSamples, 7)
	viaReduction := RelFromCosts(n, rhoH1, rhoH2)

	if math.Abs(direct-viaReduction) > 0.01 {
		t.Fatalf("direct rel %v vs reduction %v", direct, viaReduction)
	}
}

func TestQuickReliabilityMonotoneInSources(t *testing.T) {
	// Adding sources can only increase every reachability probability.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(15) + 3
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, 0.1+0.8*r.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		s1 := []graph.NodeID{graph.NodeID(r.Intn(n))}
		s2 := append([]graph.NodeID{graph.NodeID(r.Intn(n))}, s1...)
		// Couple the comparison through materialized worlds: with the same
		// sampled edge sets, reachability from a superset of sources is a
		// superset world-by-world, so the estimates are exactly monotone.
		const samples = 200
		ws := worlds.SampleMany(g, seed, samples)
		visited := make([]bool, n)
		c1 := make([]int, n)
		c2 := make([]int, n)
		for _, w := range ws {
			for _, v := range w.ReachableFromSet(s1, visited, nil) {
				c1[v]++
			}
			for _, v := range w.ReachableFromSet(s2, visited, nil) {
				c2[v]++
			}
		}
		for v := range c1 {
			if c2[v] < c1[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

// estimateCost is the plain IC held-out cost estimate.
func estimateCost(tb testing.TB, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64) float64 {
	tb.Helper()
	cost, _, err := core.EstimateCost(context.Background(), g, seeds, set, samples, seed, worlds.IC, checkpoint.Budget{}, nil)
	if err != nil {
		tb.Fatal(err)
	}
	return cost
}
