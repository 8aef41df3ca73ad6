package infmax

import (
	"context"
	"fmt"

	"soi/internal/graph"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Spheres is the precomputed input to InfMax_TC: the typical cascade
// (sphere of influence) of every node, indexed by node id. Each sphere is a
// sorted node set. Spheres are produced by core.ComputeAll.
type Spheres [][]graph.NodeID

// nodeCoverage tracks which nodes the selected spheres already cover.
type nodeCoverage struct {
	covered []bool
	spheres Spheres
}

func (c *nodeCoverage) gain(v graph.NodeID) (float64, error) {
	g := 0
	for _, u := range c.spheres[v] {
		if !c.covered[u] {
			g++
		}
	}
	return float64(g), nil
}

func (c *nodeCoverage) commit(v graph.NodeID) (float64, error) {
	g := 0
	for _, u := range c.spheres[v] {
		if !c.covered[u] {
			c.covered[u] = true
			g++
		}
	}
	return float64(g), nil
}

// TCOptions configures InfMax_TC. It has no fields: InfMax_TC has no knobs.
type TCOptions struct{}

// TC runs the paper's InfMax_TC (Algorithm 3): greedy maximum coverage over
// the spheres of influence, with CELF lazy evaluation (coverage is monotone
// submodular, so the selection equals naive greedy's). Gains are in covered-
// node units. ctx is checked before every gain evaluation; a canceled
// context aborts the selection with ctx.Err(). The registry ctx carries
// receives the greedy metrics, and the "infmax.tc.greedy" span, with k as
// its attribute, opens under the span ctx carries.
func TC(ctx context.Context, g *graph.Graph, spheres Spheres, k int, _ TCOptions) (Selection, error) {
	if err := validateTC(g, spheres, k); err != nil {
		return Selection{}, err
	}
	cov := &nodeCoverage{covered: make([]bool, g.NumNodes()), spheres: spheres}
	sp := trace.Child(ctx, "infmax.tc.greedy", trace.Int("k", int64(k)))
	defer sp.End()
	return celfGreedy(ctx, g.NumNodes(), k, cov.gain, cov.commit, newGreedyMetrics(telemetry.FromContext(ctx)))
}

// TCNaive is TC without CELF; onRound receives each round's descending
// marginal gains for the saturation analysis. ctx is checked before every
// gain evaluation.
func TCNaive(ctx context.Context, g *graph.Graph, spheres Spheres, k int, onRound func(round int, sortedGains []float64)) (Selection, error) {
	if err := validateTC(g, spheres, k); err != nil {
		return Selection{}, err
	}
	cov := &nodeCoverage{covered: make([]bool, g.NumNodes()), spheres: spheres}
	return naiveGreedy(ctx, g.NumNodes(), k, cov.gain, cov.commit, onRound)
}

func validateTC(g *graph.Graph, spheres Spheres, k int) error {
	if err := validateK(k, g.NumNodes()); err != nil {
		return err
	}
	if len(spheres) != g.NumNodes() {
		return fmt.Errorf("infmax: %d spheres for %d nodes", len(spheres), g.NumNodes())
	}
	for v, s := range spheres {
		for _, u := range s {
			if u < 0 || int(u) >= g.NumNodes() {
				return fmt.Errorf("infmax: sphere of %d contains out-of-range node %d", v, u)
			}
		}
	}
	return nil
}

// WeightedTC is the weighted max-cover variant from the paper's future-work
// discussion (§8): market segments have values, and the goal is to cover
// maximum total value. value[u] is the worth of covering node u.
func WeightedTC(g *graph.Graph, spheres Spheres, value []float64, k int) (Selection, error) {
	if err := validateTC(g, spheres, k); err != nil {
		return Selection{}, err
	}
	if len(value) != g.NumNodes() {
		return Selection{}, fmt.Errorf("infmax: %d values for %d nodes", len(value), g.NumNodes())
	}
	for v, w := range value {
		if w < 0 {
			return Selection{}, fmt.Errorf("infmax: negative value %v for node %d", w, v)
		}
	}
	covered := make([]bool, g.NumNodes())
	gain := func(v graph.NodeID) (float64, error) {
		total := 0.0
		for _, u := range spheres[v] {
			if !covered[u] {
				total += value[u]
			}
		}
		return total, nil
	}
	commit := func(v graph.NodeID) (float64, error) {
		total := 0.0
		for _, u := range spheres[v] {
			if !covered[u] {
				covered[u] = true
				total += value[u]
			}
		}
		return total, nil
	}
	return celfGreedy(context.Background(), g.NumNodes(), k, gain, commit, greedyMetrics{})
}

// BudgetedTC is the node-cost variant from §8: each seed has a recruitment
// cost and selection must fit a budget. It uses the cost-effectiveness
// greedy (max gain/cost among affordable candidates), the standard heuristic
// for budgeted max coverage.
func BudgetedTC(g *graph.Graph, spheres Spheres, cost []float64, budget float64) (Selection, error) {
	if len(spheres) != g.NumNodes() {
		return Selection{}, fmt.Errorf("infmax: %d spheres for %d nodes", len(spheres), g.NumNodes())
	}
	if len(cost) != g.NumNodes() {
		return Selection{}, fmt.Errorf("infmax: %d costs for %d nodes", len(cost), g.NumNodes())
	}
	for v, cc := range cost {
		if cc <= 0 {
			return Selection{}, fmt.Errorf("infmax: non-positive cost %v for node %d", cc, v)
		}
	}
	if budget <= 0 {
		return Selection{}, fmt.Errorf("infmax: budget must be positive, got %v", budget)
	}
	n := g.NumNodes()
	covered := make([]bool, n)
	chosen := make([]bool, n)
	remaining := budget
	var sel Selection
	for {
		best := graph.NodeID(-1)
		bestRatio := 0.0
		bestGain := 0.0
		for v := 0; v < n; v++ {
			if chosen[v] || cost[v] > remaining {
				continue
			}
			gain := 0.0
			for _, u := range spheres[v] {
				if !covered[u] {
					gain++
				}
			}
			sel.LazyEvaluations++
			ratio := gain / cost[v]
			if ratio > bestRatio {
				bestRatio = ratio
				bestGain = gain
				best = graph.NodeID(v)
			}
		}
		if best < 0 || bestGain == 0 {
			break
		}
		for _, u := range spheres[best] {
			covered[u] = true
		}
		chosen[best] = true
		remaining -= cost[best]
		sel.Seeds = append(sel.Seeds, best)
		sel.Gains = append(sel.Gains, bestGain)
	}
	return sel, nil
}
