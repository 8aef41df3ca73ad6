package sketch

import (
	"bytes"
	"context"
	"io"
	"math/rand"
	"sync"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/rng"
)

// Benchmark scale: a 100k-node graph with ~2M edges in the near-critical
// activation regime (mean active out-degree 0.9, mean cascade ~10 nodes).
// The dense baseline is the worlds x nodes reachability matrix the sketch
// replaces: per (node, world) traversals and 4 bytes per cell, versus one
// rank pass per world and k ranks per node.
const (
	benchNodes  = 100_000
	benchDeg    = 20
	benchProb   = 0.048
	benchWorlds = 192
	benchK      = 8
)

var (
	benchOnce sync.Once
	benchG    *graph.Graph
	benchX    *index.Index
	benchSk   *Sketch
)

func benchFixture(b *testing.B) (*graph.Graph, *index.Index, *Sketch) {
	b.Helper()
	benchOnce.Do(func() {
		r := rand.New(rand.NewSource(77))
		bl := graph.NewBuilder(benchNodes)
		for u := 0; u < benchNodes; u++ {
			for d := 0; d < benchDeg; d++ {
				v := graph.NodeID(r.Intn(benchNodes))
				if v != graph.NodeID(u) {
					bl.AddEdge(graph.NodeID(u), v, benchProb)
				}
			}
		}
		g, err := bl.Build()
		if err != nil {
			panic(err)
		}
		x, err := index.Build(context.Background(), g, index.Options{Samples: benchWorlds, Seed: 78}, checkpoint.Config{})
		if err != nil {
			panic(err)
		}
		sk, err := Build(x, Options{K: benchK, Seed: 79})
		if err != nil {
			panic(err)
		}
		benchG, benchX, benchSk = g, x, sk
	})
	return benchG, benchX, benchSk
}

// artifactBytes measures the serialized SOISKC01 size without touching disk.
func artifactBytes(b *testing.B, s *Sketch) int64 {
	b.Helper()
	n, err := s.WriteTo(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	return n
}

// BenchmarkSketchBuild: one reverse-reachability rank pass per world over
// the condensation DAGs, merged into per-node bottom-k sets. artifact-bytes
// is the on-disk SOISKC01 size.
func BenchmarkSketchBuild(b *testing.B) {
	_, x, _ := benchFixture(b)
	var last *Sketch
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s, err := Build(x, Options{K: benchK, Seed: 79})
		if err != nil {
			b.Fatal(err)
		}
		last = s
	}
	b.StopTimer()
	b.ReportMetric(float64(artifactBytes(b, last)), "artifact-bytes")
	b.ReportMetric(float64(benchWorlds), "worlds")
}

// BenchmarkDenseMatrixBuild is the baseline the sketch replaces: the dense
// worlds x nodes cascade-size matrix, extracted by a traversal per
// (node, world) over the sampled graph. Its artifact is 4 bytes per cell —
// and it still only answers singleton queries; seed-set spreads would need
// the full member-list matrix, which is larger again by the mean cascade
// size. Build cost scales with worlds x nodes x cascade size; the sketch
// pass is bounded by k per node regardless of how far cascades reach.
func BenchmarkDenseMatrixBuild(b *testing.B) {
	g, _, _ := benchFixture(b)
	n := g.NumNodes()
	nEdges := g.NumEdges()
	active := make([]bool, nEdges)
	visited := make([]int32, n)
	for i := range visited {
		visited[i] = -1
	}
	queue := make([]graph.NodeID, 0, n)
	row := make([]uint32, n) // one matrix column, reused per world
	epoch := int32(-1)
	thr := uint64(benchProb * float64(1<<63) * 2)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for w := 0; w < benchWorlds; w++ {
			wseed := rng.Mix64(uint64(80) ^ uint64(w)<<20)
			for e := 0; e < nEdges; e++ {
				active[e] = rng.Mix64(wseed^uint64(e)*0x9E3779B97F4A7C15) < thr
			}
			for v := 0; v < n; v++ {
				epoch++
				queue = append(queue[:0], graph.NodeID(v))
				visited[v] = epoch
				count := uint32(0)
				for len(queue) > 0 {
					u := queue[len(queue)-1]
					queue = queue[:len(queue)-1]
					count++
					lo, hi := g.EdgeRange(u)
					for e := lo; e < hi; e++ {
						if t := g.EdgeTo(e); active[e] && visited[t] != epoch {
							visited[t] = epoch
							queue = append(queue, t)
						}
					}
				}
				row[v] = count
			}
		}
	}
	b.StopTimer()
	b.ReportMetric(float64(4*n*benchWorlds), "artifact-bytes")
	b.ReportMetric(float64(benchWorlds), "worlds")
}

// BenchmarkSketchEstimateSpread: a seed-set spread estimate is one O(k)
// merge per seed — independent of worlds and cascade size.
func BenchmarkSketchEstimateSpread(b *testing.B) {
	_, _, sk := benchFixture(b)
	seeds := benchSeeds()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		sink = sk.EstimateSpread(seeds)
	}
	b.StopTimer()
	b.ReportMetric(sink, "spread")
}

// BenchmarkDenseEstimateSpread is the served dense estimator: a cascade
// union per world, every world.
func BenchmarkDenseEstimateSpread(b *testing.B) {
	_, x, _ := benchFixture(b)
	seeds := benchSeeds()
	s := x.NewScratch()
	b.ResetTimer()
	var sink float64
	for i := 0; i < b.N; i++ {
		total := 0
		for w := 0; w < benchWorlds; w++ {
			total += x.CascadeSizeFromSet(seeds, w, s)
		}
		sink = float64(total) / benchWorlds
	}
	b.StopTimer()
	b.ReportMetric(sink, "spread")
}

func benchSeeds() []graph.NodeID {
	seeds := make([]graph.NodeID, 10)
	for i := range seeds {
		seeds[i] = graph.NodeID(i * 9973)
	}
	return seeds
}

// readFixture is a serialized sketch at the scale of one served shard
// (8,000 nodes, 96 worlds, the default k) for BenchmarkSketchRead; it is
// much smaller than benchFixture, so the load path is measured without
// paying for the 100k-node build.
var readFixture = sync.OnceValue(func() []byte {
	const n, deg = 8000, 10
	r := rand.New(rand.NewSource(81))
	bl := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for d := 0; d < deg; d++ {
			if v := graph.NodeID(r.Intn(n)); v != graph.NodeID(u) {
				bl.AddEdge(graph.NodeID(u), v, 0.1)
			}
		}
	}
	g, err := bl.Build()
	if err != nil {
		panic(err)
	}
	x, err := index.Build(context.Background(), g, index.Options{Samples: 96, Seed: 82}, checkpoint.Config{})
	if err != nil {
		panic(err)
	}
	sk, err := Build(x, Options{Seed: 83})
	if err != nil {
		panic(err)
	}
	var buf bytes.Buffer
	if _, err := sk.WriteTo(&buf); err != nil {
		panic(err)
	}
	return buf.Bytes()
})

// BenchmarkSketchRead is the sketch half of a daemon's start-up: decode and
// validate a whole SOISKC01 file from memory.
func BenchmarkSketchRead(b *testing.B) {
	data := readFixture()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Read(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
