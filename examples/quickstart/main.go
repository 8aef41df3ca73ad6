// Quickstart: compute the sphere of influence of a node and pick seed sets.
//
// Run with: go run ./examples/quickstart
package main

import (
	"context"
	"fmt"
	"log"

	"soi"
)

func main() {
	ctx := context.Background()
	// Build the running example of the paper (Figure 1): five nodes,
	// v5 -> v1 (0.7), v5 -> v2 (0.4), v5 -> v4 (0.3), v1 -> v2 (0.1),
	// v4 -> v2 (0.6), v2 -> v1 (0.1), v2 -> v3 (0.4). Nodes map to 0..4.
	b := soi.NewGraphBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	g := b.MustBuild()

	// Index ℓ = 1000 sampled possible worlds (SCC condensations + the
	// node-to-component matrix of the paper's Algorithm 1).
	idx, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 1000, Seed: 7}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// The sphere of influence of v5 (node 4): the Jaccard median of its
	// sampled cascades, with a held-out stability estimate.
	sphere := soi.TypicalCascade(idx, 4, soi.TypicalOptions{CostSamples: 1000, CostSeed: 11})
	fmt.Printf("sphere of influence of v5: %v\n", sphere.Set)
	fmt.Printf("  sample cost (training ρ̃): %.4f\n", sphere.SampleCost)
	fmt.Printf("  stability  (held-out ρ):  %.4f  (lower = more predictable)\n", sphere.ExpectedCost)

	// Spheres for every node, then influence maximization both ways.
	all, err := soi.AllTypicalCascades(ctx, idx, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	spheres := soi.SpheresOf(all)
	for v, s := range spheres {
		fmt.Printf("node %d sphere: %v\n", v, s)
	}

	tc, err := soi.SelectSeedsTC(ctx, g, spheres, 2)
	if err != nil {
		log.Fatal(err)
	}
	std, err := soi.SelectSeedsStd(ctx, idx, 2)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("InfMax_TC seeds:  %v (covers %.0f sphere elements)\n", tc.Seeds, tc.Objective())
	fmt.Printf("InfMax_std seeds: %v (expected spread %.2f)\n", std.Seeds, std.Objective())

	// Score both seed sets with an independent Monte-Carlo estimate.
	sigmaTC, err := soi.ExpectedSpread(ctx, g, tc.Seeds, 20000, 13, idx.Model(), soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	sigmaStd, err := soi.ExpectedSpread(ctx, g, std.Seeds, 20000, 13, idx.Model(), soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("σ(TC seeds)  = %.3f\n", sigmaTC)
	fmt.Printf("σ(std seeds) = %.3f\n", sigmaStd)
}
