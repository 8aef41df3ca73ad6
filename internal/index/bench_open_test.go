package index

import (
	"context"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// benchIndexFile serializes a mid-sized v03 index to a temp file for the
// load benchmark.
func benchIndexFile(b *testing.B) (string, *graph.Graph) {
	b.Helper()
	g := randomGraph(b, 3, 2000, 10000)
	x, err := Build(context.Background(), g, Options{Samples: 256, Seed: 4}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	p := filepath.Join(b.TempDir(), "bench.idx")
	if err := x.SaveFile(p); err != nil {
		b.Fatal(err)
	}
	return p, g
}

// BenchmarkIndexEagerRead is the load path: parse, checksum, and decode
// every world before the first query can run.
func BenchmarkIndexEagerRead(b *testing.B) {
	p, g := benchIndexFile(b)
	fi, err := os.Stat(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	b.ReportAllocs()
	var last *Index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := LoadFile(p, g)
		if err != nil {
			b.Fatal(err)
		}
		last = x
	}
	b.StopTimer()
	b.ReportMetric(float64(last.MemoryFootprint()), "resident-bytes")
}
