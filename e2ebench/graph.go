package main

import (
	"fmt"

	"soi/internal/gen"
	"soi/internal/graph"
	"soi/internal/probs"
)

// graphSpec sizes the benchmark graph: two disjoint copies of a
// preferential-attachment graph (power-law tail, triad closure) with mutual
// links and weighted-cascade probabilities. Mutual links make each copy one
// strongly connected component, and scc.Partition never splits one, so it
// cuts the graph into exactly its two copies: two non-empty shards with zero
// cut edges.
type graphSpec struct {
	NodesPerCopy int
	M            int // mean out-links per node
}

var benchGraphSpec = graphSpec{NodesPerCopy: 8000, M: 7}

// makeGraph generates the benchmark graph deterministically from seed.
func makeGraph(spec graphSpec, seed uint64) (*graph.Graph, error) {
	n := spec.NodesPerCopy
	b := graph.NewBuilder(2 * n)
	for c := 0; c < 2; c++ {
		topo, err := gen.Generate(gen.Config{
			Model:      "ba",
			N:          n,
			M:          spec.M,
			TailExp:    1.9,
			Clustering: 0.3,
			Mutual:     true,
			Seed:       seed*2 + uint64(c) + 1,
		})
		if err != nil {
			return nil, fmt.Errorf("graph copy %d: %w", c, err)
		}
		wc, err := probs.WeightedCascade(topo)
		if err != nil {
			return nil, err
		}
		off := graph.NodeID(c * n)
		for _, e := range wc.Edges() {
			b.AddEdge(e.From+off, e.To+off, e.Prob)
		}
	}
	return b.Build()
}
