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
// open-path benchmarks.
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

// BenchmarkIndexEagerRead is the baseline open path: parse, checksum, and
// decode every world before the first query can run.
func BenchmarkIndexEagerRead(b *testing.B) {
	p, g := benchIndexFile(b)
	fi, err := os.Stat(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
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

// BenchmarkIndexOpenMmap opens the same file page-on-demand: only the
// header and directory are read and verified, so open cost is O(worlds),
// not O(file), and nothing is resident until a query faults blocks in.
func BenchmarkIndexOpenMmap(b *testing.B) {
	p, g := benchIndexFile(b)
	fi, err := os.Stat(p)
	if err != nil {
		b.Fatal(err)
	}
	b.SetBytes(fi.Size())
	var last *Index
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x, err := OpenMmap(p, g, MmapOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if last != nil {
			last.Close()
		}
		last = x
	}
	b.StopTimer()
	b.ReportMetric(float64(last.MemoryFootprint()), "resident-bytes")
	last.Close()
}

// BenchmarkIndexMmapQuerySweep measures the steady-state query cost over a
// mapped index once every block has faulted in, for comparison against
// BenchmarkCascadeExtraction on the eager representation.
func BenchmarkIndexMmapQuerySweep(b *testing.B) {
	p, g := benchIndexFile(b)
	x, err := OpenMmap(p, g, MmapOptions{})
	if err != nil {
		b.Fatal(err)
	}
	defer x.Close()
	s := x.NewScratch()
	var buf []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.Cascade(graph.NodeID(i%2000), i%256, s, buf[:0])
	}
}
