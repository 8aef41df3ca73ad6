// Learning influence probabilities from a propagation log.
//
// Real viral-marketing deployments do not know p(u,v); they learn it from
// logs of past user actions. This example simulates such a log from a known
// ground truth, learns the probabilities back with both methods the paper
// uses — Saito et al.'s EM and Goyal et al.'s frequentist counting — and
// reports how well each recovers the truth and how the choice changes the
// spheres of influence.
//
// Run with: go run ./examples/learning
package main

import (
	"context"
	"fmt"
	"log"
	"math"

	"soi"
)

func main() {
	ctx := context.Background()
	// Ground truth: a scale-free follow network with uniform-random
	// influence strengths.
	topo, err := soi.Generate(soi.GenConfig{Model: "ba", N: 400, M: 4, Seed: 41})
	if err != nil {
		log.Fatal(err)
	}
	truth, err := topo.WithProbs(func(u, v soi.NodeID, old float64) float64 {
		// Deterministic pseudo-random truth in [0.05, 0.45].
		h := uint64(u)*2654435761 + uint64(v)*40503
		return 0.05 + 0.4*float64(h%1000)/1000
	})
	if err != nil {
		log.Fatal(err)
	}

	// Simulate a propagation log: 3000 items, 2 initial adopters each.
	plog, err := soi.SimulateLog(truth, 3000, 2, 43)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("simulated log: %d items, %d events over %d users\n",
		plog.NumItems(), plog.NumEvents(), plog.NumUsers())

	saito, err := soi.LearnSaito(topo, plog, soi.SaitoConfig{MaxIter: 150})
	if err != nil {
		log.Fatal(err)
	}
	goyal, err := soi.LearnGoyal(topo, plog, soi.GoyalConfig{})
	if err != nil {
		log.Fatal(err)
	}

	report := func(name string, learnt *soi.Graph) {
		var mae, n float64
		for _, e := range truth.Edges() {
			if p := learnt.Prob(e.From, e.To); p > 0 {
				mae += math.Abs(p - e.Prob)
				n++
			}
		}
		fmt.Printf("%-6s learnt %5d/%d edges, mean prob %.3f (truth %.3f), MAE on learnt edges %.3f\n",
			name, learnt.NumEdges(), truth.NumEdges(), learnt.MeanProb(), truth.MeanProb(), mae/n)
	}
	report("saito", saito)
	report("goyal", goyal)

	// How much does the learner choice change the answers? Compare the
	// sphere of influence of the same node under both learnt graphs.
	idxS, err := soi.BuildIndex(ctx, saito, soi.IndexOptions{Samples: 500, Seed: 47}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	idxG, err := soi.BuildIndex(ctx, goyal, soi.IndexOptions{Samples: 500, Seed: 47}, soi.ResumeConfig{})
	if err != nil {
		log.Fatal(err)
	}
	probe := soi.NodeID(0) // the oldest, best-connected node
	sS := soi.TypicalCascade(idxS, probe, soi.TypicalOptions{})
	sG := soi.TypicalCascade(idxG, probe, soi.TypicalOptions{})
	fmt.Printf("sphere of node %d: |saito|=%d |goyal|=%d, Jaccard distance %.3f\n",
		probe, sS.Size(), sG.Size(), soi.JaccardDistance(sS.Set, sG.Set))
	fmt.Println("(Goyal's counting estimator is biased upward for the IC model, so its")
	fmt.Println(" spheres are systematically larger — the paper's Figure 3/Table 2 effect.)")
}
