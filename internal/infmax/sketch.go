package infmax

import (
	"context"

	"soi/internal/graph"
	"soi/internal/sketch"
)

// SelectSeedsSketch runs SKIM-style influence maximization entirely in
// sketch space (Cohen et al., CIKM 2014): CELF lazy greedy on the spread
// estimated from combined bottom-k reachability sketches. The residual
// state is just the merged bottom-k sketch of the committed seeds — at most
// k ranks — so a marginal gain costs one O(k) merge instead of a pass over
// worlds × nodes, and the whole selection is near-linear in n·k.
//
// The sketch estimator is monotone (merging can only lower the k-th rank
// or grow an exhaustive sketch), so gains are nonnegative; Gains are in
// expected-spread units, matching Std. The selection inherits the sketch's
// (ε, δ) guarantee: the conformance suite holds it to
// (1-1/e)·opt − slack with slack derived via bound.BottomK.
func SelectSeedsSketch(sk *sketch.Sketch, k int) (Selection, error) {
	n := sk.Nodes()
	if err := validateK(k, n); err != nil {
		return Selection{}, err
	}
	var union []uint64 // merged sketch of the committed seeds
	current := 0.0     // its spread estimate
	gain := func(v graph.NodeID) (float64, error) {
		return sk.SpreadFromRanks(sketch.Merge(sk.K(), union, sk.NodeRanks(v))) - current, nil
	}
	commit := func(v graph.NodeID) (float64, error) {
		union = sketch.Merge(sk.K(), union, sk.NodeRanks(v))
		next := sk.SpreadFromRanks(union)
		realized := next - current
		current = next
		return realized, nil
	}
	return celfGreedy(context.Background(), n, k, gain, commit, newGreedyMetrics(sk.Telemetry()))
}
