package worlds

import (
	"fmt"

	"soi/internal/graph"
	"soi/internal/rng"
)

// Linear Threshold (LT) support.
//
// Kempe et al. prove the LT model equivalent to a live-edge distribution in
// which every node keeps AT MOST ONE incoming edge, chosen with probability
// equal to its weight (no edge kept with the residual probability
// 1 - Σ weights). The paper's typical-cascade machinery is model-agnostic
// given a live-edge sampler, so providing this sampler extends spheres of
// influence, stability and InfMax_TC to LT networks unchanged.
//
// Weights must satisfy Σ_{u} w(u,v) <= 1 for every node v; the weighted-
// cascade assignment (w = 1/inDeg) satisfies it with equality.

// ValidateLTWeights checks the per-node incoming weight budget.
func ValidateLTWeights(g *graph.Graph) error {
	in := make([]float64, g.NumNodes())
	for _, e := range g.Edges() {
		in[e.To] += e.Prob
	}
	const tol = 1e-9
	for v, total := range in {
		if total > 1+tol {
			return fmt.Errorf("worlds: node %d has incoming LT weight %v > 1", v, total)
		}
	}
	return nil
}

// SampleLT draws a possible world under LT live-edge semantics: for every
// node, at most one incoming edge survives, picked with probability equal to
// its weight. The caller should have validated weights once with
// ValidateLTWeights; overweight nodes keep their first winning edge. m (nil
// disables) records the world and its per-node live-edge draws once after
// sampling.
func SampleLT(g *graph.Graph, r *rng.PCG32, m *Metrics) *World {
	w := &World{
		g:    g,
		live: make([]uint64, (g.NumEdges()+63)/64),
	}
	rev := g.Reverse()
	draws := 0
	// For each node v, walk its incoming edges accumulating weight and keep
	// the edge whose interval contains a single uniform draw.
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		lo, hi := rev.EdgeRange(v)
		if lo == hi {
			continue
		}
		draws++
		u01 := r.Float64()
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += rev.EdgeProb(i)
			if u01 < acc {
				src := rev.EdgeTo(i)
				fi := forwardEdgeIndex(g, src, v)
				w.live[fi>>6] |= 1 << uint(fi&63)
				break
			}
		}
	}
	m.world(draws)
	return w
}

// SampleManyLT draws count independent LT worlds with split generators.
func SampleManyLT(g *graph.Graph, seed uint64, count int) []*World {
	master := rng.New(seed)
	out := make([]*World, count)
	for i := range out {
		out[i] = SampleLT(g, master.Split(uint64(i)), nil)
	}
	return out
}

// SimulateLT runs one LT cascade directly (thresholds formulation): every
// node draws a uniform threshold; an inactive node activates when the weight
// of its active in-neighbors reaches the threshold. Returns the sorted final
// active set. Used to validate the live-edge equivalence.
func SimulateLT(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32) []graph.NodeID {
	n := g.NumNodes()
	threshold := make([]float64, n)
	for i := range threshold {
		threshold[i] = r.Float64()
	}
	active := make([]bool, n)
	pressure := make([]float64, n) // active incoming weight so far
	var frontier []graph.NodeID
	for _, s := range seeds {
		if !active[s] {
			active[s] = true
			frontier = append(frontier, s)
		}
	}
	out := append([]graph.NodeID(nil), frontier...)
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, u := range frontier {
			lo, hi := g.EdgeRange(u)
			for i := lo; i < hi; i++ {
				v := g.EdgeTo(i)
				if active[v] {
					continue
				}
				pressure[v] += g.EdgeProb(i)
				if pressure[v] >= threshold[v] {
					active[v] = true
					next = append(next, v)
					out = append(out, v)
				}
			}
		}
		frontier = next
	}
	sortIDs(out)
	return out
}

// forwardEdgeIndex locates the global edge index of (u,v).
func forwardEdgeIndex(g *graph.Graph, u, v graph.NodeID) int32 {
	lo, hi := g.EdgeRange(u)
	for lo < hi {
		mid := (lo + hi) / 2
		if g.EdgeTo(mid) < v {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}
