package infmax

import (
	"context"
	"fmt"

	"soi/internal/graph"
)

// DegreeDiscount implements the DegreeDiscountIC heuristic of Chen, Wang &
// Yang (KDD 2009) for uniform-probability IC: when a neighbor of v becomes a
// seed, v's effective degree is discounted by
//
//	dd(v) = d(v) - 2·t(v) - (d(v) - t(v))·t(v)·p
//
// where d(v) is v's degree, t(v) the number of already-selected neighbors,
// and p the (uniform) propagation probability. It is orders of magnitude
// cheaper than greedy and a standard comparison point.
//
// The heuristic is designed for undirected graphs with a single p; on this
// library's directed graphs d(v) is the out-degree, neighbor discounting
// follows in-edges, and p should be the (roughly uniform) edge probability.
func DegreeDiscount(g *graph.Graph, k int, p float64) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	if p <= 0 || p > 1 {
		return Selection{}, fmt.Errorf("infmax: DegreeDiscount needs p in (0,1], got %v", p)
	}
	n := g.NumNodes()
	deg := make([]float64, n)
	tsel := make([]float64, n) // selected in-neighbors
	for v := 0; v < n; v++ {
		deg[v] = float64(g.OutDegree(graph.NodeID(v)))
	}
	// dd only decreases as seeds are added, so the lazy CELF loop applies
	// unchanged: a node's cached score is an upper bound on its current one.
	dd := func(v graph.NodeID) (float64, error) {
		return deg[v] - 2*tsel[v] - (deg[v]-tsel[v])*tsel[v]*p, nil
	}
	chosen := make([]bool, n)
	commit := func(v graph.NodeID) (float64, error) {
		realized, _ := dd(v)
		chosen[v] = true
		// Discount the out-neighbors' scores via their in-edge from the
		// new seed (on undirected/mutual graphs this is the classical rule).
		nbrs, _ := g.Neighbors(v)
		for _, w := range nbrs {
			if !chosen[w] {
				tsel[w]++
			}
		}
		return realized, nil
	}
	return celfGreedy(context.Background(), n, k, dd, commit, greedyMetrics{})
}
