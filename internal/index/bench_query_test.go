package index

import (
	"context"
	"runtime"
	"sync"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/gen"
	"soi/internal/graph"
	"soi/internal/rng"
)

// queryBench is the index BenchmarkIndexQuery queries, built once per
// process: about one serving shard — an 8,000-node preferential-attachment
// graph with mutual links and weighted-cascade probabilities, as each copy
// of the end-to-end benchmark's graph is, sampled into ℓ = 96 worlds — and
// 512 seeded seed sets of one to three nodes.
var queryBench struct {
	once sync.Once
	x    *Index
	sets [][]graph.NodeID
	err  error
}

func queryBenchIndex(b *testing.B) (*Index, [][]graph.NodeID) {
	b.Helper()
	queryBench.once.Do(func() {
		topo, err := gen.Generate(gen.Config{Model: "ba", N: 8000, M: 7, TailExp: 1.9, Clustering: 0.3, Mutual: true, Seed: 1})
		if err != nil {
			queryBench.err = err
			return
		}
		in := topo.InDegrees()
		g, err := topo.WithProbs(func(_, v graph.NodeID, _ float64) float64 { return 1 / float64(in[v]) })
		if err != nil {
			queryBench.err = err
			return
		}
		if queryBench.x, err = Build(context.Background(), g, Options{Samples: 96, Seed: 2}, checkpoint.Config{}); err != nil {
			queryBench.err = err
			return
		}
		runtime.GC() // the build's garbage is not the kernels' to collect
		r := rng.New(3)
		for range 512 {
			set := make([]graph.NodeID, 1+r.Intn(3))
			for k := range set {
				set[k] = graph.NodeID(r.Intn(g.NumNodes()))
			}
			queryBench.sets = append(queryBench.sets, set)
		}
	})
	if queryBench.err != nil {
		b.Fatal(queryBench.err)
	}
	return queryBench.x, queryBench.sets
}

var querySink int

// BenchmarkIndexQuery times the two query kernels the served estimators
// run over every world, one seed set per op: spread (CascadeSizeFromSet,
// the dense spread) and flat (CascadesFlat, the typical-cascade input). Each
// reports the index's resident-bytes (MemoryFootprint), the space the
// kernels read.
func BenchmarkIndexQuery(b *testing.B) {
	x, sets := queryBenchIndex(b)
	b.Run("spread", func(b *testing.B) {
		s := x.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			set := sets[i%len(sets)]
			for w := 0; w < x.NumWorlds(); w++ {
				querySink += x.CascadeSizeFromSet(set, w, s)
			}
		}
		b.ReportMetric(float64(x.MemoryFootprint()), "resident-bytes")
	})
	b.Run("flat", func(b *testing.B) {
		s := x.NewScratch()
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			flat, _ := x.CascadesFlat(sets[i%len(sets)], s)
			querySink += len(flat)
		}
		b.ReportMetric(float64(x.MemoryFootprint()), "resident-bytes")
	})
}
