package infmax

import (
	"context"
	"math"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/worlds"
)

func TestRRPicksDominantSeed(t *testing.T) {
	g := starChain(t)
	sel, err := RR(context.Background(), g, 1, RROptions{Sets: 5000, Seed: 1}, worlds.IC, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if sel.Seeds[0] != 0 {
		t.Fatalf("first seed %d, want 0", sel.Seeds[0])
	}
	// σ({0}) = 10: the RR estimate should be close.
	if math.Abs(sel.Gains[0]-10) > 1 {
		t.Fatalf("gain %v, want ~10", sel.Gains[0])
	}
}

func TestRRSpreadEstimateUnbiased(t *testing.T) {
	// Single-seed RR gain should match the MC spread estimate on a random
	// graph for the chosen seed.
	g := randomGraph(t, 41, 80, 320, 0.15)
	sel, err := RR(context.Background(), g, 1, RROptions{Sets: 20000, Seed: 2}, worlds.IC, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	mc := mcSpread(t, g, sel.Seeds[:1], 50000, 3)
	if math.Abs(sel.Gains[0]-mc) > 0.15*mc+0.5 {
		t.Fatalf("RR gain %v vs MC spread %v", sel.Gains[0], mc)
	}
}

func TestRRSeedQualityMatchesGreedy(t *testing.T) {
	g := randomGraph(t, 43, 100, 400, 0.15)
	x := buildIndex(t, g, 200, 44)
	std, err := Std(context.Background(), x, 5)
	if err != nil {
		t.Fatal(err)
	}
	rr, err := RR(context.Background(), g, 5, RROptions{Sets: 20000, Seed: 45}, worlds.IC, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sStd := mcSpread(t, g, std.Seeds, 20000, 46)
	sRR := mcSpread(t, g, rr.Seeds, 20000, 46)
	if sRR < 0.9*sStd {
		t.Fatalf("RR spread %v far below greedy %v", sRR, sStd)
	}
}

func TestRRDistinctSeedsAndDeterminism(t *testing.T) {
	g := randomGraph(t, 47, 50, 200, 0.2)
	a, err := RR(context.Background(), g, 8, RROptions{Sets: 2000, Seed: 9}, worlds.IC, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	b, err := RR(context.Background(), g, 8, RROptions{Sets: 2000, Seed: 9}, worlds.IC, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]bool{}
	for i, s := range a.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
		if b.Seeds[i] != s {
			t.Fatal("RR nondeterministic for fixed seed")
		}
	}
}

func TestRRValidation(t *testing.T) {
	g := starChain(t)
	if _, err := RR(context.Background(), g, 0, RROptions{Sets: 10}, worlds.IC, checkpoint.Config{}); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := RR(context.Background(), g, 1, RROptions{Sets: 0}, worlds.IC, checkpoint.Config{}); err == nil {
		t.Error("accepted Sets=0")
	}
}

func TestRRGainsNonIncreasing(t *testing.T) {
	g := randomGraph(t, 49, 60, 240, 0.2)
	sel, err := RR(context.Background(), g, 10, RROptions{Sets: 5000, Seed: 50}, worlds.IC, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 1; i < len(sel.Gains); i++ {
		if sel.Gains[i] > sel.Gains[i-1]+1e-9 {
			t.Fatalf("gain increased at %d: %v -> %v", i, sel.Gains[i-1], sel.Gains[i])
		}
	}
}

func BenchmarkRRSketch(b *testing.B) {
	g := randomGraph(b, 51, 1000, 5000, 0.1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := RR(context.Background(), g, 20, RROptions{Sets: 10000, Seed: uint64(i)}, worlds.IC, checkpoint.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}
