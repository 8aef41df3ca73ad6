package infmax

import (
	"context"
	"testing"

	"soi/internal/index"
	"soi/internal/sketch"
)

// Sketch-space SKIM greedy versus the dense index-backed CELF greedy on the
// same instance. The dense greedy's candidate evaluations each union
// cascades across every sampled world; the sketch greedy's are O(k) rank
// merges — independent of the number of worlds and of cascade size.

func benchSeedGraph(b *testing.B) *index.Index {
	b.Helper()
	g := randomGraph(b, 21, 20000, 100000, 0.15)
	return buildIndex(b, g, 128, 22)
}

func BenchmarkSketchSelectSeeds(b *testing.B) {
	x := benchSeedGraph(b)
	sk, err := sketch.Build(context.Background(), x, sketch.Options{K: 64, Seed: 23})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	var sel Selection
	for i := 0; i < b.N; i++ {
		sel, err = SelectSeedsSketch(sk, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(sel.Objective(), "objective")
}

func BenchmarkDenseSelectSeeds(b *testing.B) {
	x := benchSeedGraph(b)
	b.ResetTimer()
	var sel Selection
	var err error
	for i := 0; i < b.N; i++ {
		sel, err = Std(context.Background(), x, 10)
		if err != nil {
			b.Fatal(err)
		}
	}
	b.StopTimer()
	b.ReportMetric(sel.Objective(), "objective")
}
