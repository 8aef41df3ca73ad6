package cascade

import (
	"context"
	"math"
	"testing"
	"testing/quick"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
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

func lineGraph(t testing.TB, n int, p float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), p)
	}
	return b.MustBuild()
}

// The Simulate tests check the cascades ExpectedSpread draws: one
// worlds.Sampler.Forward per trial, with activation steps recorded.

func TestSimulateSeedsAtStepZero(t *testing.T) {
	g := paperGraph(t)
	nodes, steps := worlds.NewSampler(g, worlds.IC).Forward([]graph.NodeID{4, 2}, rng.New(1), nil, []int32{}, nil)
	if len(nodes) < 2 || len(steps) != len(nodes) {
		t.Fatalf("activations: %v at steps %v", nodes, steps)
	}
	if nodes[0] != 4 || steps[0] != 0 || nodes[1] != 2 || steps[1] != 0 {
		t.Fatalf("seeds not at step 0: %v at steps %v", nodes[:2], steps[:2])
	}
}

func TestSimulateStepsAreParentPlusOne(t *testing.T) {
	// On a deterministic line (p = 1) the step of node i must be i.
	g := lineGraph(t, 8, 1)
	for _, model := range []worlds.Model{worlds.IC, worlds.LT} {
		nodes, steps := worlds.NewSampler(g, model).Forward([]graph.NodeID{0}, rng.New(2), nil, []int32{}, nil)
		if len(nodes) != 8 || len(steps) != 8 {
			t.Fatalf("%v: expected full line activation, got %v at steps %v", model, nodes, steps)
		}
		for i := range nodes {
			if int(nodes[i]) != i || int(steps[i]) != i {
				t.Fatalf("%v: activation %d = node %d at step %d", model, i, nodes[i], steps[i])
			}
		}
	}
}

func TestSimulateScratchReset(t *testing.T) {
	// A sampler reused after a cascade must draw what a fresh one draws
	// from the same generator: a visited mark left behind would drop the
	// seed or its successors from the second cascade.
	g := paperGraph(t)
	s := worlds.NewSampler(g, worlds.IC)
	for trial := uint64(0); trial < 50; trial++ {
		s.Forward([]graph.NodeID{4}, rng.New(3+trial), nil, nil, nil)
		got, _ := s.Forward([]graph.NodeID{4}, rng.New(100+trial), nil, nil, nil)
		want, _ := worlds.NewSampler(g, worlds.IC).Forward([]graph.NodeID{4}, rng.New(100+trial), nil, nil, nil)
		if len(got) != len(want) {
			t.Fatalf("trial %d: reused sampler drew %v, fresh sampler %v", trial, got, want)
		}
		for i := range got {
			if got[i] != want[i] {
				t.Fatalf("trial %d: reused sampler drew %v, fresh sampler %v", trial, got, want)
			}
		}
	}
}

func TestSimulateDuplicateSeeds(t *testing.T) {
	g := paperGraph(t)
	nodes, _ := worlds.NewSampler(g, worlds.IC).Forward([]graph.NodeID{4, 4, 4}, rng.New(4), nil, nil, nil)
	count := 0
	for _, v := range nodes {
		if v == 4 {
			count++
		}
	}
	if count != 1 {
		t.Fatalf("seed activated %d times", count)
	}
}

func TestExpectedSpreadLine(t *testing.T) {
	// On a line with p per hop, σ({0}) = Σ_{i=0..n-1} p^i.
	const p = 0.5
	g := lineGraph(t, 10, p)
	want := 0.0
	for i := 0; i < 10; i++ {
		want += math.Pow(p, float64(i))
	}
	got := spread(t, g, []graph.NodeID{0}, 200000, 5, 0)
	if math.Abs(got-want) > 0.02 {
		t.Fatalf("σ = %v, want ~%v", got, want)
	}
}

func TestExpectedSpreadStar(t *testing.T) {
	// Star: center -> k leaves each with p. σ({center}) = 1 + k*p.
	b := graph.NewBuilder(11)
	for i := 1; i <= 10; i++ {
		b.AddEdge(0, graph.NodeID(i), 0.3)
	}
	g := b.MustBuild()
	got := spread(t, g, []graph.NodeID{0}, 200000, 6, 0)
	if want := 1 + 10*0.3; math.Abs(got-want) > 0.05 {
		t.Fatalf("σ = %v, want ~%v", got, want)
	}
}

func TestExpectedSpreadDeterministicAcrossWorkers(t *testing.T) {
	g := paperGraph(t)
	a := spread(t, g, []graph.NodeID{4}, 5000, 7, 1)
	b := spread(t, g, []graph.NodeID{4}, 5000, 7, 4)
	if a != b {
		t.Fatalf("worker count changed estimate: %v vs %v", a, b)
	}
}

func TestExpectedSpreadZeroTrials(t *testing.T) {
	g := paperGraph(t)
	if got := spread(t, g, []graph.NodeID{4}, 0, 1, 0); got != 0 {
		t.Fatalf("got %v", got)
	}
}

func TestSpreadFromIndexMatchesMC(t *testing.T) {
	g := paperGraph(t)
	x, err := index.Build(context.Background(), g, index.Options{Samples: 4000, Seed: 9}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	viaIndex := SpreadFromIndex(x, []graph.NodeID{4}, s)
	viaMC := spread(t, g, []graph.NodeID{4}, 200000, 10, 0)
	if math.Abs(viaIndex-viaMC) > 0.05 {
		t.Fatalf("index estimate %v vs MC %v", viaIndex, viaMC)
	}
}

// TestSpreadMonotoneSubmodular verifies, on sampled random graphs, the two
// properties Kempe et al. prove for σ under IC — evaluated exactly on a
// shared world index so the test is deterministic: monotonicity
// σ(S) <= σ(S∪{w}) and submodularity of marginal gains.
func TestSpreadMonotoneSubmodular(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(15) + 4
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
		x, err := index.Build(context.Background(), g, index.Options{Samples: 30, Seed: seed}, checkpoint.Config{})
		if err != nil {
			return false
		}
		s := x.NewScratch()
		// S ⊆ T, w ∉ T.
		sSet := []graph.NodeID{0}
		tSet := []graph.NodeID{0, 1 % graph.NodeID(n)}
		w := graph.NodeID(r.Intn(n))
		sigma := func(set []graph.NodeID) float64 { return SpreadFromIndex(x, set, s) }
		sS, sT := sigma(sSet), sigma(tSet)
		if sS > sT+1e-9 {
			return false // monotonicity violated
		}
		gainS := sigma(append(append([]graph.NodeID{}, sSet...), w)) - sS
		gainT := sigma(append(append([]graph.NodeID{}, tSet...), w)) - sT
		return gainS >= gainT-1e-9 // submodularity
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkExpectedSpread(b *testing.B) {
	r := rng.New(1)
	bb := graph.NewBuilder(1000)
	for i := 0; i < 5000; i++ {
		u, v := graph.NodeID(r.Intn(1000)), graph.NodeID(r.Intn(1000))
		if u != v {
			bb.AddEdge(u, v, 0.1)
		}
	}
	g := bb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = spread(b, g, []graph.NodeID{0, 1, 2}, 1000, uint64(i), 0)
	}
}

// spread is the plain ExpectedSpread run.
func spread(tb testing.TB, g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64, workers int) float64 {
	tb.Helper()
	est, err := ExpectedSpread(context.Background(), g, seeds, trials, seed, worlds.IC, workers, checkpoint.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return est
}
