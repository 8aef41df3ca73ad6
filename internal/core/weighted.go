package core

import (
	"context"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/worlds"
)

// Weighted typical cascades — the §8 scenario where nodes (market segments)
// carry values: the sphere of influence is the set minimizing the expected
// *weighted* Jaccard distance to a random cascade, so the summary is driven
// by what the cascades are worth rather than how many nodes they hit.

// ComputeWeighted returns the weighted typical cascade of a seed set under
// the node values in weight (indexed by node id; ids beyond the slice weigh
// 1, non-positive weights make a node invisible). The median is the
// weighted frequency-prefix solution polished by 1-swap local search; the
// held-out ExpectedCost is the weighted expected distance.
func ComputeWeighted(x *index.Index, seeds []graph.NodeID, weight []float64, opts Options) Result {
	s := x.NewScratch()
	start := time.Now()
	samples := x.CascadesFromSet(seeds, s)
	med := jaccard.WeightedRefine(samples, weight, jaccard.WeightedPrefix(samples, weight).Set, 0)
	res := Result{
		Seeds:        append([]graph.NodeID(nil), seeds...),
		Set:          med.Set,
		SampleCost:   med.Cost,
		ExpectedCost: -1,
		MedianTime:   time.Since(start),
	}
	if opts.CostSamples > 0 {
		cs := time.Now()
		res.ExpectedCost = EstimateCostWeighted(x.Graph(), seeds, med.Set, weight,
			opts.CostSamples, opts.CostSeed, x.Model())
		res.CostTime = time.Since(cs)
	}
	return res
}

// EstimateCostWeighted estimates the expected weighted Jaccard distance
// between set and a fresh random cascade from seeds.
func EstimateCostWeighted(g *graph.Graph, seeds, set []graph.NodeID, weight []float64,
	samples int, seed uint64, model worlds.Model) float64 {
	cost, _, _ := estimate(context.Background(), g, seeds, samples, seed, model, checkpoint.Budget{}, nil,
		func(c []graph.NodeID) float64 { return jaccard.WeightedDistance(set, c, weight) })
	return cost
}
