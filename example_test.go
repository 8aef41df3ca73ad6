package soi_test

import (
	"context"
	"fmt"

	"soi"
)

// The paper's Figure-1 graph, used across the examples.
func figure1Graph() *soi.Graph {
	b := soi.NewGraphBuilder(5)
	b.AddEdge(4, 0, 0.7) // v5 -> v1
	b.AddEdge(4, 1, 0.4) // v5 -> v2
	b.AddEdge(4, 3, 0.3) // v5 -> v4
	b.AddEdge(0, 1, 0.1) // v1 -> v2
	b.AddEdge(3, 1, 0.6) // v4 -> v2
	b.AddEdge(1, 0, 0.1) // v2 -> v1
	b.AddEdge(1, 2, 0.4) // v2 -> v3
	return b.MustBuild()
}

// ExampleTypicalCascade computes the sphere of influence of the paper's
// query node v5.
func ExampleTypicalCascade() {
	g := figure1Graph()
	idx, err := soi.BuildIndex(context.Background(), g, soi.IndexOptions{Samples: 2000, Seed: 7}, soi.ResumeConfig{})
	if err != nil {
		panic(err)
	}
	sphere := soi.TypicalCascade(idx, 4, soi.TypicalOptions{})
	fmt.Println("sphere of v5:", sphere.Set)
	// Output:
	// sphere of v5: [0 1 4]
}

// ExampleSelectSeedsTC runs the paper's max-cover influence maximization
// over precomputed spheres.
func ExampleSelectSeedsTC() {
	g := figure1Graph()
	idx, err := soi.BuildIndex(context.Background(), g, soi.IndexOptions{Samples: 2000, Seed: 7}, soi.ResumeConfig{})
	if err != nil {
		panic(err)
	}
	all, err := soi.AllTypicalCascades(context.Background(), idx, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		panic(err)
	}
	sel, err := soi.SelectSeedsTC(context.Background(), g, soi.SpheresOf(all), 2)
	if err != nil {
		panic(err)
	}
	fmt.Println("seeds:", sel.Seeds)
	// Output:
	// seeds: [4 2]
}

// ExampleJaccardDistance demonstrates the set metric underlying the typical
// cascade objective.
func ExampleJaccardDistance() {
	a := []soi.NodeID{1, 2, 3}
	b := []soi.NodeID{2, 3, 4}
	fmt.Printf("%.1f\n", soi.JaccardDistance(a, b))
	// Output:
	// 0.5
}

// ExampleReliability estimates a two-hop reachability probability.
func ExampleReliability() {
	b := soi.NewGraphBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	rel, err := soi.Reliability(context.Background(), g, 0, 2, 400000, 1, soi.ModelIC)
	if err != nil {
		panic(err)
	}
	fmt.Printf("rel ≈ %.2f\n", rel)
	// Output:
	// rel ≈ 0.25
}

// ExampleEstimateStability shows the closed-form check from the package
// tests: on a single edge of probability 0.3, the stability of {0} is 0.15.
func ExampleEstimateStability() {
	b := soi.NewGraphBuilder(2)
	b.AddEdge(0, 1, 0.3)
	g := b.MustBuild()
	cost, _, err := soi.EstimateStability(context.Background(), g, []soi.NodeID{0}, []soi.NodeID{0}, 400000, 2, soi.ModelIC, soi.Budget{})
	if err != nil {
		panic(err)
	}
	fmt.Printf("ρ ≈ %.2f\n", cost)
	// Output:
	// ρ ≈ 0.15
}

// ExampleAnalyzeModes separates the die-out and take-off modes of a node
// whose cascade either stops immediately (60%) or sweeps a 31-node chain
// (40%) — the structure a single typical cascade cannot express.
func ExampleAnalyzeModes() {
	b := soi.NewGraphBuilder(32)
	b.AddEdge(0, 1, 0.4)
	for i := 1; i < 31; i++ {
		b.AddEdge(soi.NodeID(i), soi.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	idx, err := soi.BuildIndex(context.Background(), g, soi.IndexOptions{Samples: 2000, Seed: 3}, soi.ResumeConfig{})
	if err != nil {
		panic(err)
	}
	modes := soi.AnalyzeModes(idx, 0, 2)
	for i, m := range modes {
		fmt.Printf("mode %d: %d nodes, probability %.2f\n", i+1, len(m.Median), m.Probability)
	}
	fmt.Printf("take-off probability %.2f\n", soi.TakeoffProbability(modes))
	// Output:
	// mode 1: 1 nodes, probability 0.59
	// mode 2: 32 nodes, probability 0.41
	// take-off probability 0.41
}
