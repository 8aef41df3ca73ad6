package cascade

import (
	"context"
	"testing"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/oracle"
	"soi/internal/statcheck"
	"soi/internal/worlds"
)

func conformanceGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	return b.MustBuild()
}

// TestConformanceExpectedSpread holds the Monte-Carlo spread estimator to
// the oracle for several seed sets. Each trial's spread lies in [0, n], so
// the Hoeffding bound is scaled by n; the seed sets are fixed a priori, so a
// union over them suffices.
func TestConformanceExpectedSpread(t *testing.T) {
	g := conformanceGraph(t)
	n := float64(g.NumNodes())
	seedSets := [][]graph.NodeID{{4}, {0}, {1, 3}, {0, 1, 2, 3, 4}}
	const trials = 20000
	b := bound.Hoeffding(trials, statcheck.DefaultDelta).Union(len(seedSets)).Scale(n)
	for i, seeds := range seedSets {
		exact, err := oracle.ExpectedSpread(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		got := spread(t, g, seeds, trials, 80+uint64(i), 0)
		statcheck.Close(t, "ExpectedSpread vs oracle", got, exact, b)
	}
}

// TestConformanceSpreadFromIndex checks the index-coverage spread estimate:
// it is the empirical mean of trial spreads over the index's ell sampled
// worlds, so the same scaled Hoeffding bound applies with ell = Samples.
func TestConformanceSpreadFromIndex(t *testing.T) {
	g := conformanceGraph(t)
	n := float64(g.NumNodes())
	const ell = 20000
	x, err := index.Build(context.Background(), g, index.Options{Samples: ell, Seed: 81}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	seedSets := [][]graph.NodeID{{4}, {1, 3}}
	b := bound.Hoeffding(ell, statcheck.DefaultDelta).Union(len(seedSets)).Scale(n)
	s := x.NewScratch()
	for _, seeds := range seedSets {
		exact, err := oracle.ExpectedSpread(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		statcheck.Close(t, "SpreadFromIndex vs oracle", SpreadFromIndex(x, seeds, s), exact, b)
	}
}

// TestConformanceExpectedSpreadLT holds the Monte-Carlo spread under LT to
// the exact LT oracle, over a graph whose incoming weights sum to at most
// 1 per node, with the same scaled, unioned Hoeffding bound.
func TestConformanceExpectedSpreadLT(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.3)
	b.AddEdge(1, 2, 0.4)
	b.AddEdge(2, 3, 0.6)
	b.AddEdge(1, 3, 0.3)
	b.AddEdge(3, 1, 0.2)
	b.AddEdge(3, 4, 0.5)
	b.AddEdge(2, 4, 0.4)
	b.AddEdge(4, 5, 0.7)
	b.AddEdge(5, 0, 0.5)
	g := b.MustBuild()
	seedSets := [][]graph.NodeID{{0}, {3}, {1, 4}}
	const trials = 20000
	bd := bound.Hoeffding(trials, statcheck.DefaultDelta).Union(len(seedSets)).Scale(float64(g.NumNodes()))
	for i, seeds := range seedSets {
		d, err := oracle.LTCascadeDistribution(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		got, err := ExpectedSpread(context.Background(), g, seeds, trials, 90+uint64(i), worlds.LT, 2, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		statcheck.Close(t, "LT ExpectedSpread vs oracle", got, d.ExpectedSpread(), bd)
	}
}
