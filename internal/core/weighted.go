package core

import (
	"time"

	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/rng"
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
			opts.CostSamples, opts.CostSeed, opts.Model)
		res.CostTime = time.Since(cs)
	}
	return res
}

// EstimateCostWeighted estimates the expected weighted Jaccard distance
// between set and a fresh random cascade from seeds.
func EstimateCostWeighted(g *graph.Graph, seeds, set []graph.NodeID, weight []float64,
	samples int, seed uint64, model index.Model) float64 {
	if samples <= 0 {
		return -1
	}
	master := rng.New(seed)
	visited := make([]bool, g.NumNodes())
	var buf []graph.NodeID
	total := 0.0
	for i := 0; i < samples; i++ {
		r := master.Split(uint64(i))
		if model == index.LT {
			w := worlds.SampleLT(g, r, nil)
			buf = w.ReachableFromSet(seeds, visited, buf[:0])
		} else {
			buf = worlds.SampleCascadeFromSet(g, seeds, r, visited, buf[:0], nil)
		}
		total += jaccard.WeightedDistance(set, buf, weight)
	}
	return total / float64(samples)
}
