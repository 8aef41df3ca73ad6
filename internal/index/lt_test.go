package index

import (
	"context"
	"math"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// wcGraph builds a random graph with weighted-cascade probabilities (always
// a valid LT weighting).
func wcGraph(t testing.TB, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u != v {
			b.AddEdge(u, v, 1)
		}
	}
	g := b.MustBuild()
	in := g.InDegrees()
	wc, err := g.WithProbs(func(u, v graph.NodeID, old float64) float64 {
		return 1 / float64(in[v])
	})
	if err != nil {
		t.Fatal(err)
	}
	return wc
}

func TestLTIndexMatchesLTWorlds(t *testing.T) {
	g := wcGraph(t, 61, 50, 200)
	const ell = 10
	x, err := Build(context.Background(), g, Options{Samples: ell, Seed: 62, Model: worlds.LT}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	master := rng.New(62)
	s := x.NewScratch()
	visited := make([]bool, g.NumNodes())
	for i := 0; i < ell; i++ {
		w := worlds.SampleLT(g, master.Split(uint64(i)), nil)
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			got := x.Cascade(v, i, s, nil)
			want := w.Reachable(v, visited, nil)
			if len(got) != len(want) {
				t.Fatalf("world %d node %d: %v vs %v", i, v, got, want)
			}
			for j := range got {
				if got[j] != want[j] {
					t.Fatalf("world %d node %d: %v vs %v", i, v, got, want)
				}
			}
		}
	}
}

func TestLTIndexRejectsOverweight(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2, 0.8)
	b.AddEdge(1, 2, 0.8)
	g := b.MustBuild()
	if _, err := Build(context.Background(), g, Options{Samples: 5, Seed: 1, Model: worlds.LT}, checkpoint.Config{}); err == nil {
		t.Fatal("accepted overweight LT graph")
	}
	// The same graph is fine under IC.
	if _, err := Build(context.Background(), g, Options{Samples: 5, Seed: 1}, checkpoint.Config{}); err != nil {
		t.Fatalf("IC rejected valid graph: %v", err)
	}
}

// TestLTSpreadMatchesDirectSimulation: the index-based spread under LT must
// agree with direct simulation by the lazy LT sampler, which draws each
// node's choice as the cascade reaches it instead of over a whole world.
func TestLTSpreadMatchesDirectSimulation(t *testing.T) {
	g := wcGraph(t, 63, 40, 160)
	x, err := Build(context.Background(), g, Options{Samples: 4000, Seed: 64, Model: worlds.LT}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	seeds := []graph.NodeID{0, 7}
	viaIndex := 0
	for i := 0; i < x.NumWorlds(); i++ {
		viaIndex += x.CascadeSizeFromSet(seeds, i, s)
	}
	indexSpread := float64(viaIndex) / float64(x.NumWorlds())

	const trials = 50000
	r := rng.New(65)
	smp := worlds.NewSampler(g, worlds.LT)
	var buf []graph.NodeID
	sum := 0
	for i := 0; i < trials; i++ {
		buf, _ = smp.Forward(seeds, r, buf[:0], nil, nil)
		sum += len(buf)
	}
	directSpread := float64(sum) / trials
	if math.Abs(indexSpread-directSpread) > 0.15+0.02*directSpread {
		t.Fatalf("LT spread via index %v vs direct %v", indexSpread, directSpread)
	}
}
