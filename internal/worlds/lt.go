package worlds

import (
	"soi/internal/graph"
	"soi/internal/rng"

	"slices"
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

// SampleLT draws a possible world under LT live-edge semantics: for every
// node, at most one incoming edge survives, picked with probability equal to
// its weight. The caller should have validated weights once with
// ValidateModel; overweight nodes keep their first winning edge. m (nil
// disables) records the world and its per-node live-edge draws once after
// sampling.
func SampleLT(g *graph.Graph, r *rng.PCG32, m *Metrics) *World {
	w := &World{
		g:    g,
		live: make([]uint64, (g.NumEdges()+63)/64),
	}
	rev := g.Reverse()
	draws := 0
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if lo, hi := rev.EdgeRange(v); lo == hi {
			continue
		}
		draws++
		if i := ltChoice(rev, v, r); i >= 0 {
			fi := forwardEdgeIndex(g, rev.EdgeTo(i), v)
			w.live[fi>>6] |= 1 << uint(fi&63)
		}
	}
	m.world(draws)
	return w
}

// ltChoice draws v's live in-edge: it walks v's incoming edges in rev (the
// transpose) accumulating weight, and keeps the edge whose interval holds
// one uniform draw. It returns that edge's index in rev, or -1 when v keeps
// no in-edge. A node without incoming edges consumes no draw.
func ltChoice(rev *graph.Graph, v graph.NodeID, r *rng.PCG32) int32 {
	lo, hi := rev.EdgeRange(v)
	if lo == hi {
		return -1
	}
	u01 := r.Float64()
	acc := 0.0
	for i := lo; i < hi; i++ {
		acc += rev.EdgeProb(i)
		if u01 < acc {
			return i
		}
	}
	return -1
}

// forwardEdgeIndex locates the global edge index of (u,v).
func forwardEdgeIndex(g *graph.Graph, u, v graph.NodeID) int32 {
	lo, _ := g.EdgeRange(u)
	succ, _ := g.Neighbors(u)
	i, _ := slices.BinarySearch(succ, v)
	return lo + int32(i)
}
