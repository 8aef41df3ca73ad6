package router

import (
	"context"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/server"
	"soi/internal/telemetry"
)

// TestGatewayRelaysICOnlyConflict: over shards serving LT-built indexes,
// the IC-only estimators are refused by every shard with 409 conflict, and
// the gateway relays that refusal instead of counting the shards failed,
// while the index spread still scatter-gathers.
func TestGatewayRelaysICOnlyConflict(t *testing.T) {
	topo := &Topology{Format: TopologyFormat, NumNodes: 10}
	var groups [][]string
	for s := 0; s < 2; s++ {
		// A 5-ring with in-weights 0.7 each: a valid LT weighting.
		b := graph.NewBuilder(5)
		for i := 0; i < 5; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%5), 0.7)
		}
		x, err := index.Build(context.Background(), b.MustBuild(), index.Options{Samples: 30, Seed: uint64(s), Model: index.LT}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]int64, 5)
		for i := range nodes {
			nodes[i] = int64(5*s + i)
		}
		srv, err := server.New(server.Config{OrigIDs: nodes, Index: x, Trials: 20})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		groups = append(groups, []string{ts.URL})
		topo.Shards = append(topo.Shards, ShardManifest{ID: s, NumNodes: 5, NumEdges: 5, Nodes: nodes})
	}
	if err := topo.Validate(); err != nil {
		t.Fatal(err)
	}
	rt, err := New(Config{
		Topology: topo, Replicas: groups, MaxRetries: 1, RetryBase: time.Millisecond,
		HedgeDelay: -1, ProbeInterval: -1, Telemetry: telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rt.Close()
		if tr, ok := rt.client.Transport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	})
	for _, url := range []string{"/v1/spread?seeds=0,7&method=mc", "/v1/reliability?sources=0,7&threshold=0.5"} {
		code, body := gwDo(t, rt, url)
		e, _ := body["error"].(map[string]any)
		if code != http.StatusConflict || e["code"] != api.CodeConflict {
			t.Fatalf("GET %s through the gateway: %d %v, want the shards' 409 conflict", url, code, body)
		}
	}
	if code, body := gwDo(t, rt, "/v1/spread?seeds=0,7"); code != http.StatusOK {
		t.Fatalf("index spread through the gateway: %d %v, want 200", code, body)
	}
}
