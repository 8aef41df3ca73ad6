package worlds

import (
	"math"
	"slices"
	"testing"

	"soi/internal/graph"
	"soi/internal/rng"
)

func ltGraph(t testing.TB) *graph.Graph {
	t.Helper()
	// Weighted-cascade weights (1/inDeg, assigned by hand to avoid an
	// import cycle with internal/probs) always satisfy the LT budget.
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 1)   // in(1) = {0}
	b.AddEdge(0, 2, 0.5) // in(2) = {0, 1}
	b.AddEdge(1, 2, 0.5)
	b.AddEdge(2, 3, 1)   // in(3) = {2}
	b.AddEdge(3, 4, 0.5) // in(4) = {3, 1}
	b.AddEdge(1, 4, 0.5)
	b.AddEdge(4, 5, 1) // in(5) = {4}
	return b.MustBuild()
}

func TestValidateLTWeights(t *testing.T) {
	g := ltGraph(t)
	if err := ValidateModel(g, LT); err != nil {
		t.Fatalf("WC weights rejected: %v", err)
	}
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.9)
	b.AddEdge(1, 0, 0.9)
	over := b.MustBuild()
	// Node weights are fine here (each node has one in-edge of 0.9).
	if err := ValidateModel(over, LT); err != nil {
		t.Fatalf("valid graph rejected: %v", err)
	}
	b2 := graph.NewBuilder(3)
	b2.AddEdge(0, 2, 0.7)
	b2.AddEdge(1, 2, 0.7)
	overweight := b2.MustBuild()
	if err := ValidateModel(overweight, LT); err == nil {
		t.Fatal("overweight node accepted")
	}
	if err := ValidateModel(overweight, IC); err != nil {
		t.Fatalf("IC rejected a graph with in-weights above 1: %v", err)
	}
	if err := ValidateModel(g, Model(2)); err == nil {
		t.Fatal("unknown model accepted")
	}
}

func TestSampleLTAtMostOneInEdge(t *testing.T) {
	g := ltGraph(t)
	rev := g.Reverse()
	for trial := 0; trial < 200; trial++ {
		w := SampleLT(g, rng.New(uint64(trial)), nil)
		inCount := make([]int, g.NumNodes())
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if w.EdgeLive(e) {
				inCount[g.EdgeTo(e)]++
			}
		}
		for v, c := range inCount {
			if c > 1 {
				t.Fatalf("trial %d: node %d kept %d incoming edges", trial, v, c)
			}
		}
	}
	_ = rev
}

func TestSampleLTEdgeMarginals(t *testing.T) {
	// Each incoming edge of v must survive with probability exactly its
	// weight.
	g := ltGraph(t)
	const trials = 100000
	r := rng.New(7)
	counts := make([]int, g.NumEdges())
	for i := 0; i < trials; i++ {
		w := SampleLT(g, r, nil)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if w.EdgeLive(e) {
				counts[e]++
			}
		}
	}
	for e := 0; e < g.NumEdges(); e++ {
		got := float64(counts[e]) / trials
		want := g.EdgeProb(int32(e))
		if math.Abs(got-want) > 0.01 {
			t.Fatalf("edge %d live rate %v, want %v", e, got, want)
		}
	}
}

// TestLTLiveEdgeEquivalence is the Kempe et al. equivalence: the
// distribution of active-set sizes under direct threshold simulation must
// match reachability in LT live-edge worlds.
func TestLTLiveEdgeEquivalence(t *testing.T) {
	g := ltGraph(t)
	seeds := []graph.NodeID{0}
	const trials = 200000

	r1 := rng.New(11)
	sumDirect := 0
	countByNodeDirect := make([]int, g.NumNodes())
	for i := 0; i < trials; i++ {
		set := SimulateLT(g, seeds, r1)
		sumDirect += len(set)
		for _, v := range set {
			countByNodeDirect[v]++
		}
	}

	r2 := rng.New(12)
	visited := make([]bool, g.NumNodes())
	sumLive := 0
	countByNodeLive := make([]int, g.NumNodes())
	for i := 0; i < trials; i++ {
		w := SampleLT(g, r2, nil)
		set := w.Reachable(0, visited, nil)
		sumLive += len(set)
		for _, v := range set {
			countByNodeLive[v]++
		}
	}

	if d := math.Abs(float64(sumDirect)-float64(sumLive)) / trials; d > 0.02 {
		t.Fatalf("mean active-set sizes differ: %v vs %v",
			float64(sumDirect)/trials, float64(sumLive)/trials)
	}
	for v := 0; v < g.NumNodes(); v++ {
		a := float64(countByNodeDirect[v]) / trials
		b := float64(countByNodeLive[v]) / trials
		if math.Abs(a-b) > 0.01 {
			t.Fatalf("node %d activation prob: direct %v vs live-edge %v", v, a, b)
		}
	}
}

func TestSampleLTDeterministic(t *testing.T) {
	g := ltGraph(t)
	for i := uint64(0); i < 10; i++ {
		a, b := SampleLT(g, rng.New(5).Split(i), nil), SampleLT(g, rng.New(5).Split(i), nil)
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if a.EdgeLive(e) != b.EdgeLive(e) {
				t.Fatalf("world %d differs", i)
			}
		}
	}
}

// SimulateLT runs one LT cascade directly (thresholds formulation): every
// node draws a uniform threshold; an inactive node activates when the weight
// of its active in-neighbors reaches the threshold. Returns the sorted final
// active set. It shares no code with the live-edge samplers, so it is the
// independent cross-check of the Kempe et al. equivalence.
func SimulateLT(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32) []graph.NodeID {
	n := g.NumNodes()
	threshold := make([]float64, n)
	for i := range threshold {
		threshold[i] = r.Float64()
	}
	active := make([]bool, n)
	pressure := make([]float64, n) // active incoming weight so far
	var frontier []graph.NodeID
	for _, s := range seeds {
		if !active[s] {
			active[s] = true
			frontier = append(frontier, s)
		}
	}
	out := append([]graph.NodeID(nil), frontier...)
	for len(frontier) > 0 {
		var next []graph.NodeID
		for _, u := range frontier {
			lo, hi := g.EdgeRange(u)
			for i := lo; i < hi; i++ {
				v := g.EdgeTo(i)
				if active[v] {
					continue
				}
				pressure[v] += g.EdgeProb(i)
				if pressure[v] >= threshold[v] {
					active[v] = true
					next = append(next, v)
					out = append(out, v)
				}
			}
		}
		frontier = next
	}
	slices.Sort(out)
	return out
}
