package infmax

import (
	"context"
	"fmt"

	"soi/internal/graph"
	"soi/internal/index"
)

// SaturationPoint is one round of the marginal-gain-ratio analysis behind
// the paper's Figure 7: Ratio = MG_rank / MG_1, the gain of the rank-th best
// candidate divided by the gain of the selected (best) candidate. A ratio
// near 1 means the greedy can no longer distinguish its top candidates —
// the "point of saturation".
type SaturationPoint struct {
	Round int
	Ratio float64
}

// ratioAt extracts MG_rank/MG_1 from a round's descending gain list.
func ratioAt(sorted []float64, rank int) float64 {
	if len(sorted) == 0 || sorted[0] <= 0 {
		// Degenerate round: nothing (or only noise) left to gain.
		return 1
	}
	if rank > len(sorted) {
		rank = len(sorted)
	}
	return sorted[rank-1] / sorted[0]
}

// saturation runs a naive greedy through run and records MG_rank/MG_1 at
// each of its rounds.
func saturation(rank int, run func(onRound func(round int, sorted []float64)) (Selection, error)) ([]SaturationPoint, Selection, error) {
	if rank < 2 {
		return nil, Selection{}, fmt.Errorf("infmax: rank must be >= 2, got %d", rank)
	}
	var points []SaturationPoint
	sel, err := run(func(round int, sorted []float64) {
		points = append(points, SaturationPoint{Round: round, Ratio: ratioAt(sorted, rank)})
	})
	if err != nil {
		return nil, Selection{}, err
	}
	return points, sel, nil
}

// SaturationStd runs the un-optimized standard greedy for k rounds and
// records MG_rank/MG_1 at each round. This is deliberately the naive greedy
// — the paper notes the analysis "cannot use the optimizations", which is
// why it is run only on small instances.
func SaturationStd(ctx context.Context, x *index.Index, k, rank int) ([]SaturationPoint, Selection, error) {
	return saturation(rank, func(onRound func(int, []float64)) (Selection, error) {
		return StdNaive(ctx, x, k, onRound)
	})
}

// SaturationTC is the same analysis for the typical-cascade method.
func SaturationTC(ctx context.Context, g *graph.Graph, spheres Spheres, k, rank int) ([]SaturationPoint, Selection, error) {
	return saturation(rank, func(onRound func(int, []float64)) (Selection, error) {
		return TCNaive(ctx, g, spheres, k, onRound)
	})
}
