package daemon_test

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/server"
)

// TestBudgetCap: a budget parameter above the cap is capped, so soid's
// Monte-Carlo spread under budget=1h still degrades to 206 at the cap
// (lowered here to 50ms) rather than sampling for an hour. The trial count
// is large enough that the capped budget always truncates, but small enough
// that the sampler's uninterruptible per-trial setup stays well inside the
// budget grace even under -race — past that, the hard deadline turns the
// 206 into a 503.
func TestBudgetCap(t *testing.T) {
	defer daemon.SetMaxBudget(50 * time.Millisecond)()
	const n = 40
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.8)
	}
	g := b.MustBuild()
	x, err := index.Build(context.Background(), g, index.Options{Samples: 16, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s, err := server.New(server.Config{Index: x})
	if err != nil {
		t.Fatal(err)
	}
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=0&method=mc&trials=1000000&budget=1h", nil))
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206 under the capped budget: %s", rec.Code, rec.Body.String())
	}
}
