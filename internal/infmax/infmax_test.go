package infmax

import (
	"context"
	"testing"
	"testing/quick"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/rng"
	"soi/internal/worlds"
)

func randomGraph(t testing.TB, seed uint64, n, m int, p float64) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u != v {
			b.AddEdge(u, v, p)
		}
	}
	return b.MustBuild()
}

func buildIndex(t testing.TB, g *graph.Graph, ell int, seed uint64) *index.Index {
	t.Helper()
	x, err := index.Build(context.Background(), g, index.Options{Samples: ell, Seed: seed}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func spheresOf(t testing.TB, x *index.Index) Spheres {
	t.Helper()
	results := computeAll(t, x, core.Options{})
	s := make(Spheres, len(results))
	for v := range results {
		s[v] = results[v].Set
	}
	return s
}

func TestStdMatchesNaive(t *testing.T) {
	g := randomGraph(t, 1, 60, 240, 0.15)
	x := buildIndex(t, g, 30, 2)
	lazy, err := Std(context.Background(), x, 8)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := StdNaive(context.Background(), x, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(lazy.Seeds) != len(naive.Seeds) {
		t.Fatalf("lengths differ: %d vs %d", len(lazy.Seeds), len(naive.Seeds))
	}
	// CELF must reach the same objective as naive greedy (tie-breaking may
	// differ, so compare objective values per prefix).
	lg, ng := 0.0, 0.0
	for i := range lazy.Seeds {
		lg += lazy.Gains[i]
		ng += naive.Gains[i]
		if diff := lg - ng; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("objective diverges at prefix %d: %v vs %v", i+1, lg, ng)
		}
	}
	if lazy.LazyEvaluations >= naive.LazyEvaluations {
		t.Fatalf("CELF did %d evaluations, naive %d: no savings", lazy.LazyEvaluations, naive.LazyEvaluations)
	}
}

func TestTCMatchesNaive(t *testing.T) {
	g := randomGraph(t, 3, 60, 240, 0.15)
	x := buildIndex(t, g, 30, 4)
	sp := spheresOf(t, x)
	lazy, err := TC(context.Background(), g, sp, 8, TCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	naive, err := TCNaive(context.Background(), g, sp, 8, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg, ng := 0.0, 0.0
	for i := range lazy.Seeds {
		lg += lazy.Gains[i]
		ng += naive.Gains[i]
		if diff := lg - ng; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("objective diverges at prefix %d: %v vs %v", i+1, lg, ng)
		}
	}
}

func TestStdFirstSeedIsBestSingleton(t *testing.T) {
	g := randomGraph(t, 5, 50, 200, 0.2)
	x := buildIndex(t, g, 40, 6)
	sel, err := Std(context.Background(), x, 1)
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	best := -1.0
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if sp := cascade.SpreadFromIndex(x, []graph.NodeID{v}, s); sp > best {
			best = sp
		}
	}
	got := cascade.SpreadFromIndex(x, []graph.NodeID{sel.Seeds[0]}, s)
	if got < best-1e-9 {
		t.Fatalf("first seed spread %v, best singleton %v", got, best)
	}
	if sel.Gains[0] != got {
		t.Fatalf("reported gain %v, actual spread %v", sel.Gains[0], got)
	}
}

func TestStdGainsNonIncreasing(t *testing.T) {
	g := randomGraph(t, 7, 80, 320, 0.15)
	x := buildIndex(t, g, 25, 8)
	sel, err := Std(context.Background(), x, 12)
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sel.Gains); i++ {
		if sel.Gains[i] > sel.Gains[i-1]+1e-9 {
			t.Fatalf("gain increased at %d: %v -> %v (submodularity violated)",
				i, sel.Gains[i-1], sel.Gains[i])
		}
	}
}

func TestTCGainsNonIncreasing(t *testing.T) {
	g := randomGraph(t, 9, 80, 320, 0.15)
	x := buildIndex(t, g, 25, 10)
	sp := spheresOf(t, x)
	sel, err := TC(context.Background(), g, sp, 12, TCOptions{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sel.Gains); i++ {
		if sel.Gains[i] > sel.Gains[i-1]+1e-9 {
			t.Fatalf("gain increased at %d", i)
		}
	}
}

func TestSeedsDistinct(t *testing.T) {
	g := randomGraph(t, 11, 40, 160, 0.2)
	x := buildIndex(t, g, 20, 12)
	sp := spheresOf(t, x)
	for name, sel := range map[string]Selection{} {
		_ = name
		_ = sel
	}
	check := func(name string, sel Selection, err error) {
		t.Helper()
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		seen := map[graph.NodeID]bool{}
		for _, s := range sel.Seeds {
			if seen[s] {
				t.Fatalf("%s selected %d twice", name, s)
			}
			seen[s] = true
		}
	}
	s1, e1 := Std(context.Background(), x, 10)
	check("Std", s1, e1)
	s2, e2 := TC(context.Background(), g, sp, 10, TCOptions{})
	check("TC", s2, e2)
	s3, e3 := Degree(g, 10)
	check("Degree", s3, e3)
	s4, e4 := Random(g, 10, 1)
	check("Random", s4, e4)
}

func TestKLargerThanN(t *testing.T) {
	g := randomGraph(t, 13, 10, 40, 0.2)
	x := buildIndex(t, g, 10, 14)
	sel, err := Std(context.Background(), x, 50)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Seeds) != 10 {
		t.Fatalf("selected %d seeds from 10 nodes", len(sel.Seeds))
	}
}

func TestValidation(t *testing.T) {
	g := randomGraph(t, 15, 10, 40, 0.2)
	x := buildIndex(t, g, 5, 16)
	if _, err := Std(context.Background(), x, 0); err == nil {
		t.Error("Std accepted k=0")
	}
	if _, err := TC(context.Background(), g, Spheres{}, 3, TCOptions{}); err == nil {
		t.Error("TC accepted mismatched spheres")
	}
	bad := make(Spheres, g.NumNodes())
	bad[0] = []graph.NodeID{99}
	if _, err := TC(context.Background(), g, bad, 3, TCOptions{}); err == nil {
		t.Error("TC accepted out-of-range sphere element")
	}
	if _, err := Degree(g, -1); err == nil {
		t.Error("Degree accepted k=-1")
	}
}

func TestDegreeOrder(t *testing.T) {
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(0, 3, 0.5)
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(1, 3, 0.5)
	b.AddEdge(2, 3, 0.5)
	g := b.MustBuild()
	sel, err := Degree(g, 3)
	if err != nil {
		t.Fatal(err)
	}
	want := []graph.NodeID{0, 1, 2}
	for i, s := range want {
		if sel.Seeds[i] != s {
			t.Fatalf("Degree seeds = %v, want %v", sel.Seeds, want)
		}
	}
}

func TestRandomDeterministicPerSeed(t *testing.T) {
	g := randomGraph(t, 17, 30, 120, 0.2)
	a, _ := Random(g, 5, 42)
	b, _ := Random(g, 5, 42)
	for i := range a.Seeds {
		if a.Seeds[i] != b.Seeds[i] {
			t.Fatal("Random nondeterministic for fixed seed")
		}
	}
}

func TestWeightedTCPrefersValue(t *testing.T) {
	// Node 1's sphere covers a high-value node; node 0 covers more nodes of
	// low value. Weighted variant must pick 1 first.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 2, 1)
	b.AddEdge(0, 3, 1)
	b.AddEdge(0, 4, 1)
	b.AddEdge(1, 5, 1)
	g := b.MustBuild()
	sp := Spheres{
		{0, 2, 3, 4},
		{1, 5},
		{2}, {3}, {4}, {5},
	}
	value := []float64{0.1, 0.1, 0.1, 0.1, 0.1, 100}
	sel, err := WeightedTC(g, sp, value, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Seeds[0] != 1 {
		t.Fatalf("weighted pick = %d, want 1", sel.Seeds[0])
	}
	// With uniform values the unweighted winner (node 0) is picked.
	uniform := []float64{1, 1, 1, 1, 1, 1}
	sel2, err := WeightedTC(g, sp, uniform, 1)
	if err != nil {
		t.Fatal(err)
	}
	if sel2.Seeds[0] != 0 {
		t.Fatalf("uniform pick = %d, want 0", sel2.Seeds[0])
	}
}

func TestWeightedTCValidation(t *testing.T) {
	g := randomGraph(t, 19, 5, 10, 0.5)
	sp := make(Spheres, 5)
	if _, err := WeightedTC(g, sp, []float64{1, 2}, 1); err == nil {
		t.Error("accepted short value vector")
	}
	if _, err := WeightedTC(g, sp, []float64{1, 1, 1, 1, -1}, 1); err == nil {
		t.Error("accepted negative value")
	}
}

func TestBudgetedTCRespectsBudget(t *testing.T) {
	g := randomGraph(t, 21, 30, 150, 0.3)
	x := buildIndex(t, g, 15, 22)
	sp := spheresOf(t, x)
	cost := make([]float64, g.NumNodes())
	for i := range cost {
		cost[i] = 1 + float64(i%3)
	}
	const budget = 7.5
	sel, err := BudgetedTC(g, sp, cost, budget)
	if err != nil {
		t.Fatal(err)
	}
	total := 0.0
	for _, s := range sel.Seeds {
		total += cost[s]
	}
	if total > budget {
		t.Fatalf("spent %v over budget %v", total, budget)
	}
	if len(sel.Seeds) == 0 {
		t.Fatal("selected nothing within a feasible budget")
	}
}

func TestBudgetedTCValidation(t *testing.T) {
	g := randomGraph(t, 23, 5, 10, 0.5)
	sp := make(Spheres, 5)
	if _, err := BudgetedTC(g, sp, []float64{1, 1, 1, 1, 0}, 5); err == nil {
		t.Error("accepted zero cost")
	}
	if _, err := BudgetedTC(g, sp, []float64{1, 1, 1, 1, 1}, 0); err == nil {
		t.Error("accepted zero budget")
	}
}

func TestSaturationRatiosInRange(t *testing.T) {
	g := randomGraph(t, 25, 50, 200, 0.2)
	x := buildIndex(t, g, 20, 26)
	points, sel, err := SaturationStd(context.Background(), x, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	if len(points) != len(sel.Seeds) {
		t.Fatalf("%d points for %d seeds", len(points), len(sel.Seeds))
	}
	for _, p := range points {
		if p.Ratio < 0 || p.Ratio > 1+1e-9 {
			t.Fatalf("round %d ratio %v out of range", p.Round, p.Ratio)
		}
	}
	sp := spheresOf(t, x)
	points2, _, err := SaturationTC(context.Background(), g, sp, 10, 10)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range points2 {
		if p.Ratio < 0 || p.Ratio > 1+1e-9 {
			t.Fatalf("TC round %d ratio %v out of range", p.Round, p.Ratio)
		}
	}
}

func TestSaturationRankValidation(t *testing.T) {
	g := randomGraph(t, 27, 10, 30, 0.2)
	x := buildIndex(t, g, 5, 28)
	if _, _, err := SaturationStd(context.Background(), x, 3, 1); err == nil {
		t.Error("accepted rank 1")
	}
}

// TestQuickCELFEqualsNaiveObjective is the central lazy-greedy property:
// for random submodular instances the CELF objective trajectory matches
// naive greedy exactly.
func TestQuickCELFEqualsNaiveObjective(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 5
		g := randomGraph(t, seed^0xBEEF, n, 4*n, 0.1+0.3*r.Float64())
		x, err := index.Build(context.Background(), g, index.Options{Samples: 10, Seed: seed}, checkpoint.Config{})
		if err != nil {
			return false
		}
		k := r.Intn(n/2) + 1
		lazy, err1 := Std(context.Background(), x, k)
		naive, err2 := StdNaive(context.Background(), x, k, nil)
		if err1 != nil || err2 != nil {
			return false
		}
		lg, ng := 0.0, 0.0
		for i := range lazy.Gains {
			lg += lazy.Gains[i]
			ng += naive.Gains[i]
			if diff := lg - ng; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStdCELF(b *testing.B) {
	g := randomGraph(b, 1, 1000, 5000, 0.1)
	x := buildIndex(b, g, 100, 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Std(context.Background(), x, 20); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTCCELF(b *testing.B) {
	g := randomGraph(b, 3, 1000, 5000, 0.1)
	x := buildIndex(b, g, 100, 4)
	sp := spheresOf(b, x)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := TC(context.Background(), g, sp, 20, TCOptions{}); err != nil {
			b.Fatal(err)
		}
	}
}

// mcSpread is the plain Monte-Carlo spread the quality tests score with.
func mcSpread(tb testing.TB, g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64) float64 {
	tb.Helper()
	est, err := cascade.ExpectedSpread(context.Background(), g, seeds, trials, seed, worlds.IC, 0, checkpoint.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return est
}

// computeAll is the plain all-nodes sphere sweep.
func computeAll(tb testing.TB, x *index.Index, opts core.Options) []core.Result {
	tb.Helper()
	out, err := core.ComputeAll(context.Background(), x, opts, checkpoint.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return out
}
