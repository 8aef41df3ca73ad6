package server

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"testing"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/oracle"
	"soi/internal/sketch"
	"soi/internal/statcheck"
	"soi/internal/worlds"
)

// ltTrials is the Monte-Carlo sample count the LT conformance queries ask
// for.
const ltTrials = 20000

// ltGraph is a 5-node graph with a cycle whose incoming weights sum to at
// most 1 per node, a valid LT weighting small enough for the exact LT
// oracle.
func ltGraph() *graph.Graph {
	b := graph.NewBuilder(5)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.6)
	b.AddEdge(2, 0, 0.4)
	b.AddEdge(0, 3, 0.5)
	b.AddEdge(2, 3, 0.5)
	b.AddEdge(3, 4, 0.6)
	b.AddEdge(1, 4, 0.4)
	return b.MustBuild()
}

// ltServer serves an LT-built index of ltGraph with its sphere store and
// sketch.
func ltServer(t testing.TB) (*Server, *graph.Graph) {
	t.Helper()
	g := ltGraph()
	ctx := context.Background()
	x, err := index.Build(ctx, g, index.Options{Samples: 40, Seed: 3, Model: worlds.LT}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spheres, err := core.ComputeAll(ctx, x, core.Options{}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.Build(ctx, x, sketch.Options{K: 8, Seed: 4})
	if err != nil {
		t.Fatal(err)
	}
	s, err := New(Config{Index: x, Spheres: spheres, Sketch: sk, CostSamples: 20, Trials: 20, Seed: 5})
	if err != nil {
		t.Fatal(err)
	}
	return s, g
}

// TestLTEstimatorsMatchOracle: over an LT index every endpoint answers
// 200, and the two estimators that sample fresh cascades — the Monte-Carlo
// spread and the reliability search — sample them under LT: the spread
// brackets the exact LT spread, and reliability membership agrees with the
// exact LT reach probabilities outside the sampling margin.
func TestLTEstimatorsMatchOracle(t *testing.T) {
	s, g := ltServer(t)
	for _, url := range []string{
		"/v1/spread?seeds=0", "/v1/spread?seeds=0&method=index", "/v1/spread?seeds=0&estimator=sketch",
		"/v1/spread?seeds=0&method=mc", "/v1/reliability?sources=0&threshold=0.5",
		"/v1/sphere/0", "/v1/sphere/0?source=compute", "/v1/stability?seeds=0,3",
		"/v1/seeds?k=2", "/v1/seeds?k=2&estimator=sketch", "/v1/modes/0",
	} {
		if rec, body := do(t, s, url); rec.Code != http.StatusOK {
			t.Fatalf("GET %s over an LT index: %d %v, want 200", url, rec.Code, body)
		}
	}

	dist, err := oracle.LTCascadeDistribution(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	ic, err := oracle.ExpectedSpread(g, []graph.NodeID{0})
	if err != nil {
		t.Fatal(err)
	}
	sb := bound.Hoeffding(ltTrials, statcheck.DefaultDelta).Scale(float64(g.NumNodes()))
	if math.Abs(ic-dist.ExpectedSpread()) <= 2*sb.Eps {
		t.Fatalf("IC spread %v and LT spread %v within 2ε = %v: the fixture cannot tell the models apart", ic, dist.ExpectedSpread(), 2*sb.Eps)
	}
	rec, body := do(t, s, fmt.Sprintf("/v1/spread?seeds=0&method=mc&trials=%d", ltTrials))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	statcheck.Close(t, "served LT MC spread", bodyFloat(t, body, "spread"), dist.ExpectedSpread(), sb)

	// At threshold 0.5 node 4 is in under LT (0.59) and out under IC (0.467).
	const threshold = 0.5
	rec, body = do(t, s, fmt.Sprintf("/v1/reliability?sources=0&threshold=0.5&samples=%d", ltTrials))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := make(map[graph.NodeID]bool)
	for _, v := range bodyNodes(t, body, "nodes") {
		got[v] = true
	}
	b := bound.Hoeffding(ltTrials, statcheck.DefaultDelta).Union(g.NumNodes())
	for v, p := range dist.ReachProbabilities() {
		if statcheck.InMargin(p, threshold, b) {
			continue
		}
		if want := p >= threshold; got[graph.NodeID(v)] != want {
			t.Errorf("node %d membership %v, exact LT prob %v vs threshold %v says %v", v, got[graph.NodeID(v)], p, threshold, want)
		}
	}
}
