package infmax

import (
	"context"
	"testing"

	"soi/internal/graph"
)

// starChain builds a graph with one clearly dominant seed: node 0 reaches a
// deterministic chain of length 10, all other nodes are isolated pairs.
func starChain(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(20)
	for i := 0; i < 9; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	b.AddEdge(10, 11, 0.2)
	b.AddEdge(12, 13, 0.2)
	b.AddEdge(14, 15, 0.2)
	return b.MustBuild()
}

func TestStdMCPicksDominantSeed(t *testing.T) {
	g := starChain(t)
	sel, err := StdMC(context.Background(), g, 1, MCOptions{Trials: 300, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Seeds[0] != 0 {
		t.Fatalf("first seed %d, want 0", sel.Seeds[0])
	}
	// Realized gain ~ σ({0}) = 10.
	if sel.Gains[0] < 9 || sel.Gains[0] > 11 {
		t.Fatalf("gain %v, want ~10", sel.Gains[0])
	}
}

func TestStdMCRespectsK(t *testing.T) {
	g := starChain(t)
	sel, err := StdMC(context.Background(), g, 5, MCOptions{Trials: 50, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Seeds) != 5 {
		t.Fatalf("selected %d seeds", len(sel.Seeds))
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range sel.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}

func TestStdMCValidation(t *testing.T) {
	g := starChain(t)
	if _, err := StdMC(context.Background(), g, 0, MCOptions{Trials: 10}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := StdMC(context.Background(), g, 1, MCOptions{Trials: 0}); err == nil {
		t.Error("accepted Trials=0")
	}
}

func TestStdMCNaiveSaturation(t *testing.T) {
	g := randomGraph(t, 31, 40, 160, 0.15)
	pts, sel, err := SaturationStdMC(context.Background(), g, 6, 5, MCOptions{Trials: 60, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(pts) != len(sel.Seeds) {
		t.Fatalf("%d points for %d seeds", len(pts), len(sel.Seeds))
	}
	for _, p := range pts {
		if p.Ratio < 0 || p.Ratio > 1+1e-9 {
			t.Fatalf("ratio %v out of range", p.Ratio)
		}
	}
}

// TestStdMCCloseToShared: on a small graph with many trials, the MC greedy's
// selection quality must be close to the noise-free shared-worlds greedy.
func TestStdMCCloseToShared(t *testing.T) {
	g := randomGraph(t, 33, 50, 200, 0.2)
	x := buildIndex(t, g, 400, 34)
	shared, err := Std(context.Background(), x, 5)
	if err != nil {
		t.Fatal(err)
	}
	mc, err := StdMC(context.Background(), g, 5, MCOptions{Trials: 400, Seed: 35})
	if err != nil {
		t.Fatal(err)
	}
	// Compare independent spread estimates of the two seed sets.
	sSh := mcSpread(t, g, shared.Seeds, 20000, 36)
	sMC := mcSpread(t, g, mc.Seeds, 20000, 36)
	if sMC < 0.9*sSh {
		t.Fatalf("MC greedy spread %v far below shared-worlds %v", sMC, sSh)
	}
}
