// Epidemics: "given an ebola case, which other individuals should we
// quarantine?" — the paper's introduction motivates the sphere of influence
// exactly this way.
//
// A contact network is generated; edge probabilities model transmission
// likelihood. For a detected case we compute (a) its typical cascade — the
// single set of people that best summarizes where the outbreak will go —
// and (b) the reliability-search answer: everyone whose infection
// probability exceeds a policy threshold. The two queries answer different
// questions and the example prints both, plus the stability of the case
// (how predictable its outbreak is).
//
// Run with: go run ./examples/epidemics
package main

import (
	"context"
	"fmt"
	"log"

	"soi"
)

func main() {
	ctx := context.Background()
	// Contact network: small-world structure (households + commuting),
	// transmission probability decreasing in contact casualness.
	topo, err := soi.Generate(soi.GenConfig{Model: "ws", N: 500, M: 4, Beta: 0.15, Mutual: true, Seed: 21})
	if err != nil {
		log.Fatal(err)
	}
	g, err := soi.TrivalencyProbs(topo, 22) // mixed-strength contacts
	if err != nil {
		log.Fatal(err)
	}
	// Overlay stronger household transmission on the lattice neighbors.
	g, err = g.WithProbs(func(u, v soi.NodeID, old float64) float64 {
		if diff := int(u) - int(v); diff == 1 || diff == -1 {
			return 0.6
		}
		return old
	})
	if err != nil {
		log.Fatal(err)
	}

	idx, err := soi.BuildIndex(ctx, g, soi.IndexOptions{Samples: 1000, Seed: 23}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}

	patientZero := soi.NodeID(137)
	sphere := soi.TypicalCascade(idx, patientZero, soi.TypicalOptions{CostSamples: 1000, CostSeed: 29})
	fmt.Printf("patient zero: %d\n", patientZero)
	fmt.Printf("typical outbreak (quarantine set): %d people: %v\n", sphere.Size(), sphere.Set)
	fmt.Printf("outbreak stability ρ = %.3f — ", sphere.ExpectedCost)
	if sphere.ExpectedCost < 0.3 {
		fmt.Println("predictable: quarantining this set contains most outbreaks")
	} else {
		fmt.Println("volatile: outbreaks from this case vary; widen the net")
	}

	// Why volatile? Mode analysis separates die-out from take-off.
	modes := soi.AnalyzeModes(idx, patientZero, 2)
	for i, m := range modes {
		fmt.Printf("  mode %d: %3.0f%% of outbreaks look like %d people (within-mode cost %.2f)\n",
			i+1, 100*m.Probability, len(m.Median), m.Cost)
	}
	if p := soi.TakeoffProbability(modes); p > 0 {
		fmt.Printf("  take-off probability: %.0f%%\n", 100*p)
	}

	// Policy alternative: quarantine everyone with >= 25% infection risk.
	atRisk, err := soi.ReliabilitySearch(ctx, g, []soi.NodeID{patientZero}, 0.25, 20000, 31, idx.Model())
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("reliability search (risk >= 25%%): %d people: %v\n", len(atRisk), atRisk)

	// How do the two sets relate? The typical cascade is the best single
	// summary under Jaccard distance; the threshold set trades recall for
	// precision as the threshold moves.
	fmt.Printf("Jaccard distance between the two answers: %.3f\n",
		soi.JaccardDistance(sphere.Set, atRisk))

	// Compare patient zero against the most dangerous possible case: the
	// node with the largest typical cascade.
	all, err := soi.AllTypicalCascades(ctx, idx, soi.TypicalOptions{}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	worst, worstSize := soi.NodeID(0), 0
	for v, r := range all {
		if r.Size() > worstSize {
			worst, worstSize = soi.NodeID(v), r.Size()
		}
	}
	fmt.Printf("worst-case index patient would be %d (typical outbreak of %d people)\n",
		worst, worstSize)
}
