package sketch

import (
	"fmt"
	"testing"

	"soi/internal/bound"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/statcheck"
)

// conformanceGraph is a small multi-community graph whose possible worlds
// the exact oracle can enumerate (12 uncertain edges -> 4096 worlds).
func conformanceGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	for _, e := range []struct {
		from, to graph.NodeID
		p        float64
	}{
		{0, 1, 0.6}, {0, 2, 0.5}, {0, 3, 0.4},
		{4, 2, 0.5}, {4, 3, 0.6}, {4, 5, 0.3},
		{1, 2, 0.3}, {3, 5, 0.2},
		{5, 6, 0.7}, {6, 7, 0.7}, {2, 7, 0.2}, {7, 1, 0.3},
	} {
		b.AddEdge(e.from, e.to, e.p)
	}
	return b.MustBuild()
}

// Conformance parameters. The sketch genuinely compresses here: each node's
// reachability multiset holds up to n*ell = 160000 (node, world) pairs,
// far above k — so these tests exercise the (k-1)/rho_k estimator, not the
// exact small-sketch path.
const (
	confEll  = 20000
	confK    = 1 << 16
	confSeed = 11
)

// confBound derives the tolerance for one sketch estimate of a quantity
// with exact value `exact`, asserted together with m-1 sibling assertions:
// the Cohen bottom-k relative bound (delta split across the m assertions,
// scaled to additive by the exact value) plus the Hoeffding world-sampling
// bound on a [0, n]-valued mean over ell worlds.
func confBound(exact float64, m, n int) bound.Bound {
	sk := bound.BottomK(confK, statcheck.DefaultDelta).Union(m).Scale(exact)
	world := bound.Hoeffding(confEll, statcheck.DefaultDelta).Union(m).Scale(float64(n))
	return sk.Plus(world)
}

// TestConformanceSketchSpread holds sketch seed-set spread estimates to the
// exact possible-world oracle within the derived (bottom-k + world
// sampling) tolerance. Fixed seeds make the run deterministic; failure
// probability is bounded by the composed delta, not flakiness.
func TestConformanceSketchSpread(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	x := buildIndex(t, g, confEll, confSeed)
	s := mustBuild(t, x, Options{K: confK, Seed: 7})

	seedSets := [][]graph.NodeID{
		{0}, {4}, {5}, {7},
		{0, 4}, {0, 5}, {2, 6}, {1, 3},
		{0, 4, 6}, {1, 5, 7}, {0, 1, 2, 3},
	}
	for _, seeds := range seedSets {
		exact, err := o.Spread(seeds)
		if err != nil {
			t.Fatal(err)
		}
		got := s.EstimateSpread(seeds)
		statcheck.Close(t, fmt.Sprintf("sketch spread %v", seeds), got, exact,
			confBound(exact, len(seedSets), g.NumNodes()))
	}
}

// TestConformanceSketchSphereSize holds every node's estimated expected
// sphere magnitude E[|R(v)|] to the oracle's exact singleton spread.
func TestConformanceSketchSphereSize(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	x := buildIndex(t, g, confEll, confSeed)
	s := mustBuild(t, x, Options{K: confK, Seed: 9})

	n := g.NumNodes()
	for v := 0; v < n; v++ {
		exact, err := o.Spread([]graph.NodeID{graph.NodeID(v)})
		if err != nil {
			t.Fatal(err)
		}
		got := s.EstimateSphereSize(graph.NodeID(v))
		statcheck.Close(t, fmt.Sprintf("sketch sphere size node %d", v), got, exact,
			confBound(exact, n, n))
	}
}

// TestConformanceSketchServingBound checks the serving-time error bound
// (ErrorBound, what /v1 responses report at delta=0.05) actually brackets
// the exact value for every node — the acceptance contract of the smoke
// test, held here against the oracle with the world-sampling slack added.
func TestConformanceSketchServingBound(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	x := buildIndex(t, g, confEll, confSeed)
	s := mustBuild(t, x, Options{K: confK, Seed: 7})

	n := g.NumNodes()
	world := bound.Hoeffding(confEll, statcheck.DefaultDelta).Union(n).Scale(float64(n))
	for v := 0; v < n; v++ {
		exact, err := o.Spread([]graph.NodeID{graph.NodeID(v)})
		if err != nil {
			t.Fatal(err)
		}
		got := s.EstimateSphereSize(graph.NodeID(v))
		bound := s.ErrorBound(got)
		if diff := got - exact; diff > bound+world.Eps || diff < -bound-world.Eps {
			t.Errorf("node %d: |%.4f - %.4f| exceeds served bound %.4f + world slack %.4f",
				v, got, exact, bound, world.Eps)
		}
	}
}
