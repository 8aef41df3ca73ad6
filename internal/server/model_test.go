package server

import (
	"context"
	"net/http"
	"strings"
	"testing"

	"soi/internal/api"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
)

// ltServer serves an LT-built index (with its sphere store and sketch) over
// a ring whose in-weights sum to at most 1, a valid LT weighting.
func ltServer(t testing.TB) *Server {
	t.Helper()
	const n = 20
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%n), 0.6)
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+3)%n), 0.3)
	}
	ctx := context.Background()
	x, err := index.Build(ctx, b.MustBuild(), index.Options{Samples: 40, Seed: 3, Model: index.LT}, checkpoint.Config{})
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
	return s
}

// TestICOnlyEstimatorsRefuseLT: the Monte-Carlo spread and the reliability
// search simulate IC whatever the index holds, so over an LT index they
// answer 409 naming the estimator, while every endpoint that answers from
// the index's worlds or samples under its model keeps serving.
func TestICOnlyEstimatorsRefuseLT(t *testing.T) {
	s := ltServer(t)
	for url, estimator := range map[string]string{
		"/v1/spread?seeds=0&method=mc":            "method=mc",
		"/v1/reliability?sources=0&threshold=0.5": "/v1/reliability",
	} {
		rec, body := do(t, s, url)
		code, msg := envelope(t, body)
		if rec.Code != http.StatusConflict || code != api.CodeConflict || !strings.Contains(msg, estimator) || !strings.Contains(msg, "LT") {
			t.Fatalf("GET %s: %d %s %q, want 409 conflict naming %s and LT", url, rec.Code, code, msg, estimator)
		}
	}
	for _, url := range []string{
		"/v1/spread?seeds=0", "/v1/spread?seeds=0&method=index", "/v1/spread?seeds=0&estimator=sketch",
		"/v1/sphere/0", "/v1/sphere/0?source=compute", "/v1/stability?seeds=0,5",
		"/v1/seeds?k=2", "/v1/seeds?k=2&estimator=sketch", "/v1/modes/0",
	} {
		if rec, body := do(t, s, url); rec.Code != http.StatusOK {
			t.Fatalf("GET %s over an LT index: %d %v, want 200", url, rec.Code, body)
		}
	}
}
