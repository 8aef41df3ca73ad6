package server

import (
	"context"
	"os"
	"sync"
	"testing"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/oracle"
	"soi/internal/sketch"
	"soi/internal/statcheck"
	"soi/internal/telemetry"
)

// The conformance fixture serves the paper's Figure-1 graph, whose exact
// cascade distribution the oracle enumerates, so every /v1 answer can be
// checked end to end — HTTP parsing, budget plumbing, and estimator —
// against ground truth.

const confEll = 20000

// confSketchK is the bottom-k size of the fixture's sketch: big enough for
// a tight Cohen bound, small enough that the sketch still compresses the
// n*ell = 100000 (node, world) reachability pairs.
const confSketchK = 1 << 16

func confGraph(t testing.TB) *graph.Graph {
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

var (
	confOnce sync.Once
	confSrv  *Server
	confG    *graph.Graph
	confSph  []core.Result
	confErr  error
)

func conformanceServer(t testing.TB) (*Server, *graph.Graph, []core.Result) {
	t.Helper()
	confOnce.Do(func() {
		g := confGraph(t)
		x, err := index.Build(context.Background(), g, index.Options{Samples: confEll, Seed: 90}, checkpoint.Config{})
		if err != nil {
			confErr = err
			return
		}
		// The suite serves the index through the save → serving-load round
		// trip soid uses, which must be indistinguishable from the index it
		// serializes.
		f, err := os.CreateTemp("", "soi-conf-*.idx")
		if err != nil {
			confErr = err
			return
		}
		f.Close()
		defer os.Remove(f.Name())
		if confErr = x.SaveFile(f.Name()); confErr != nil {
			return
		}
		if x, confErr = index.LoadServing(context.Background(), f.Name(), g, nil); confErr != nil {
			return
		}
		spheres, err := core.ComputeAll(context.Background(), x, core.Options{CostSamples: 200, CostSeed: 91}, checkpoint.Config{})
		if err != nil {
			confErr = err
			return
		}
		// The sketch is built from the same index instance the server loads,
		// so its stored fingerprint matches the one
		// Config validation checks — exactly the sphere -sketch-out contract.
		sk, err := sketch.Build(context.Background(), x, sketch.Options{K: confSketchK, Seed: 93})
		if err != nil {
			confErr = err
			return
		}
		confSrv, confErr = New(Config{
			Index:       x,
			Spheres:     spheres,
			Sketch:      sk,
			Telemetry:   telemetry.New(),
			MaxInflight: 8,
			MaxQueue:    256,
			CostSamples: confEll,
			Trials:      confEll,
			Seed:        92,
		})
		confG, confSph = g, spheres
	})
	if confErr != nil {
		t.Fatal(confErr)
	}
	return confSrv, confG, confSph
}

func bodyNodes(t testing.TB, body map[string]any, field string) []graph.NodeID {
	t.Helper()
	raw, ok := body[field].([]any)
	if !ok {
		t.Fatalf("response field %q = %v, want a list", field, body[field])
	}
	out := make([]graph.NodeID, len(raw))
	for i, v := range raw {
		f, ok := v.(float64)
		if !ok {
			t.Fatalf("response field %q entry %v not numeric", field, v)
		}
		out[i] = graph.NodeID(f)
	}
	return out
}

func bodyFloat(t testing.TB, body map[string]any, field string) float64 {
	t.Helper()
	f, ok := body[field].(float64)
	if !ok {
		t.Fatalf("response field %q = %v, want a number", field, body[field])
	}
	return f
}

// TestConformanceServerSphere: the computed sphere's held-out stability,
// served over HTTP, agrees with the oracle's exact rho of the returned set.
func TestConformanceServerSphere(t *testing.T) {
	s, g, _ := conformanceServer(t)
	dist, err := oracle.CascadeDistribution(g, []graph.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := do(t, s, "/v1/sphere/4?source=compute&samples=20000")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	sphere := bodyNodes(t, body, "sphere")
	statcheck.Close(t, "served sphere stability", bodyFloat(t, body, "stability"),
		dist.Rho(sphere), bound.Hoeffding(confEll, statcheck.DefaultDelta))
}

// TestConformanceServerStability: seed-set stability through the HTTP layer.
func TestConformanceServerStability(t *testing.T) {
	s, g, _ := conformanceServer(t)
	dist, err := oracle.CascadeDistribution(g, []graph.NodeID{3, 4})
	if err != nil {
		t.Fatal(err)
	}
	rec, body := do(t, s, "/v1/stability?seeds=4,3&samples=20000")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	set := bodyNodes(t, body, "set")
	statcheck.Close(t, "served seed-set stability", bodyFloat(t, body, "stability"),
		dist.Rho(set), bound.Hoeffding(confEll, statcheck.DefaultDelta))
}

// TestConformanceServerSpread checks both spread methods against the exact
// expected spread; each trial is in [0, n], so the bound scales by n.
func TestConformanceServerSpread(t *testing.T) {
	s, g, _ := conformanceServer(t)
	exact, err := oracle.ExpectedSpread(g, []graph.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	b := bound.Hoeffding(confEll, statcheck.DefaultDelta).Scale(float64(g.NumNodes()))

	rec, body := do(t, s, "/v1/spread?seeds=4&method=mc&trials=20000")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	statcheck.Close(t, "served MC spread", bodyFloat(t, body, "spread"), exact, b)

	rec, body = do(t, s, "/v1/spread?seeds=4&method=index")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	statcheck.Close(t, "served index spread", bodyFloat(t, body, "spread"), exact, b)
}

// TestConformanceServerReliability: threshold membership through HTTP,
// asserted only for nodes whose exact probability clears the threshold by
// more than the sampling tolerance.
func TestConformanceServerReliability(t *testing.T) {
	s, g, _ := conformanceServer(t)
	exact, err := oracle.ReachProbabilities(g, []graph.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 0.3
	b := bound.Hoeffding(confEll, statcheck.DefaultDelta).Union(g.NumNodes())
	rec, body := do(t, s, "/v1/reliability?sources=4&threshold=0.3&samples=20000")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := make(map[graph.NodeID]bool)
	for _, v := range bodyNodes(t, body, "nodes") {
		got[v] = true
	}
	for v := range exact {
		if statcheck.InMargin(exact[v], threshold, b) {
			continue
		}
		want := exact[v] >= threshold
		if got[graph.NodeID(v)] != want {
			t.Errorf("node %d membership %v, exact prob %v vs threshold %v says %v",
				v, got[graph.NodeID(v)], exact[v], threshold, want)
		}
	}
}

// TestConformanceServerSeeds: the /v1/seeds greedy max-cover answer honors
// the deterministic (1-1/e) guarantee against the exhaustive coverage
// optimum over the same sphere store it serves from.
func TestConformanceServerSeeds(t *testing.T) {
	s, g, spheres := conformanceServer(t)
	n := g.NumNodes()
	masks := make([]uint64, n)
	for v := range spheres {
		masks[v] = oracle.MaskOf(spheres[v].Set)
	}
	const k = 2
	best := 0
	for mask := uint64(0); mask < 1<<n; mask++ {
		pop, cover := 0, uint64(0)
		for v := 0; v < n; v++ {
			if mask&(1<<v) != 0 {
				pop++
				cover |= masks[v]
			}
		}
		if pop != k {
			continue
		}
		c := 0
		for m := cover; m != 0; m &= m - 1 {
			c++
		}
		if c > best {
			best = c
		}
	}
	rec, body := do(t, s, "/v1/seeds?k=2")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	got := bodyFloat(t, body, "objective")
	const oneMinusInvE = 1 - 0.36787944117144233
	if got < oneMinusInvE*float64(best)-1e-12 {
		t.Errorf("served objective %v < (1-1/e)*%d = %v", got, best, oneMinusInvE*float64(best))
	}
}
