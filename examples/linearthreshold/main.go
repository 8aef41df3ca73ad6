// Linear Threshold: spheres of influence under the paper's other classical
// propagation model.
//
// Kempe et al. prove LT equivalent to a live-edge distribution in which each
// node keeps at most one incoming edge (chosen with probability equal to its
// weight). The whole typical-cascade stack is model-agnostic over live
// edges, so spheres, stability and seed selection work under LT unchanged —
// this example contrasts the two models on the same weighted-cascade graph,
// where the weights satisfy both models' requirements.
//
// Run with: go run ./examples/linearthreshold
package main

import (
	"context"
	"fmt"
	"log"

	"soi"
)

func main() {
	ctx := context.Background()
	topo, err := soi.Generate(soi.GenConfig{Model: "ba", N: 1500, M: 4, TailExp: 2.0, Mutual: true, Seed: 61})
	if err != nil {
		log.Fatal(err)
	}
	// Weighted-cascade probabilities: p(u,v) = 1/inDeg(v). Under IC these
	// are independent edge probabilities; under LT they are the (valid,
	// sum-to-one) incoming weights.
	g, err := soi.WeightedCascade(topo)
	if err != nil {
		log.Fatal(err)
	}

	idxIC, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 500, Seed: 62}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	idxLT, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 500, Seed: 62, Model: soi.ModelLT}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	// Compare the sphere of the strongest node under both models.
	allIC, err := soi.AllTypicalCascades(ctx, idxIC, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	allLT, err := soi.AllTypicalCascades(ctx, idxLT, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	spheresIC := soi.SpheresOf(allIC)
	spheresLT := soi.SpheresOf(allLT)

	biggest := soi.NodeID(0)
	for v := range spheresIC {
		if len(spheresIC[v]) > len(spheresIC[biggest]) {
			biggest = soi.NodeID(v)
		}
	}
	fmt.Printf("node %d: |sphere| IC = %d, LT = %d, Jaccard distance %.3f\n",
		biggest, len(spheresIC[biggest]), len(spheresLT[biggest]),
		soi.JaccardDistance(spheresIC[biggest], spheresLT[biggest]))

	avg := func(sp soi.Spheres) float64 {
		total := 0
		for _, s := range sp {
			total += len(s)
		}
		return float64(total) / float64(len(sp))
	}
	fmt.Printf("average sphere size: IC %.2f, LT %.2f\n", avg(spheresIC), avg(spheresLT))
	fmt.Println("(LT worlds keep at most one live in-edge per node — sparse functional")
	fmt.Println(" forests — so the same weights induce a different reachability regime;")
	fmt.Println(" which model yields larger spheres depends on the graph.)")

	// Seed selection under each model, cross-scored under the other: how
	// much does assuming the wrong propagation model cost?
	const k = 25
	selIC, err := soi.SelectSeedsTC(ctx, g, spheresIC, k)
	if err != nil {
		log.Fatal(err)
	}
	selLT, err := soi.SelectSeedsTC(ctx, g, spheresLT, k)
	if err != nil {
		log.Fatal(err)
	}
	s := idxLT.NewScratch()
	fmt.Printf("\nLT-world spread of LT-chosen seeds: %.1f\n", soi.SpreadFromIndex(idxLT, selLT.Seeds, s))
	fmt.Printf("LT-world spread of IC-chosen seeds: %.1f  (the model-mismatch penalty)\n",
		soi.SpreadFromIndex(idxLT, selIC.Seeds, s))
}
