package checkpoint

import (
	"testing"

	"soi/internal/graph"
	"soi/internal/rng"
)

// BenchmarkHasherGraph fingerprints a graph the size of one served shard
// (8,000 nodes, ~100k edges). soid pays this once per artifact it checks
// the graph against at start-up.
func BenchmarkHasherGraph(b *testing.B) {
	const n, m = 8000, 100_000
	r := rng.New(91)
	bl := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		if u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n)); u != v {
			bl.AddEdge(u, v, r.Float64())
		}
	}
	g := bl.MustBuild()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		NewHasher().Graph(g).Sum()
	}
}
