package router

import (
	"context"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"testing"
	"time"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/oracle"
	"soi/internal/server"
	"soi/internal/statcheck"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// addLTCopy adds, at node offset off, a 5-node graph with a cycle whose
// incoming weights sum to at most 1 per node: a valid LT weighting on
// which the LT and IC cascade distributions differ.
func addLTCopy(b *graph.Builder, off graph.NodeID) {
	b.AddEdge(off+0, off+1, 0.5)
	b.AddEdge(off+1, off+2, 0.6)
	b.AddEdge(off+2, off+0, 0.4)
	b.AddEdge(off+0, off+3, 0.5)
	b.AddEdge(off+2, off+3, 0.5)
	b.AddEdge(off+3, off+4, 0.6)
	b.AddEdge(off+1, off+4, 0.4)
}

// TestGatewayLTEstimatorsMatchOracle: over two shards serving LT-built
// indexes of disjoint copies of one graph, the scatter-gathered
// Monte-Carlo spread and reliability search answer 200 and match the exact
// LT oracle on the whole graph, and the index spread still scatter-gathers.
func TestGatewayLTEstimatorsMatchOracle(t *testing.T) {
	const trials = 20000
	topo := &Topology{Format: TopologyFormat, NumNodes: 10}
	var groups [][]string
	for s := 0; s < 2; s++ {
		b := graph.NewBuilder(5)
		addLTCopy(b, 0)
		x, err := index.Build(context.Background(), b.MustBuild(), index.Options{Samples: 30, Seed: uint64(s), Model: worlds.LT}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		nodes := make([]int64, 5)
		for i := range nodes {
			nodes[i] = int64(5*s + i)
		}
		srv, err := server.New(server.Config{OrigIDs: nodes, Index: x, Trials: 20, Seed: 7 + uint64(s)})
		if err != nil {
			t.Fatal(err)
		}
		ts := httptest.NewServer(srv.Handler())
		t.Cleanup(ts.Close)
		groups = append(groups, []string{ts.URL})
		topo.Shards = append(topo.Shards, ShardManifest{ID: s, NumNodes: 5, NumEdges: 7, Nodes: nodes})
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
	if code, body := gwDo(t, rt, "/v1/spread?seeds=0,7"); code != http.StatusOK {
		t.Fatalf("index spread through the gateway: %d %v, want 200", code, body)
	}

	b := graph.NewBuilder(10)
	addLTCopy(b, 0)
	addLTCopy(b, 5)
	g := b.MustBuild()
	seeds := []graph.NodeID{0, 5}
	dist, err := oracle.LTCascadeDistribution(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	ic, err := oracle.ExpectedSpread(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	sb := bound.Hoeffding(trials, statcheck.DefaultDelta).Scale(float64(g.NumNodes()))
	if math.Abs(ic-dist.ExpectedSpread()) <= 2*sb.Eps {
		t.Fatalf("IC spread %v and LT spread %v within 2ε = %v: the fixture cannot tell the models apart", ic, dist.ExpectedSpread(), 2*sb.Eps)
	}
	code, body := gwDo(t, rt, fmt.Sprintf("/v1/spread?seeds=0,5&method=mc&trials=%d", trials))
	if code != http.StatusOK {
		t.Fatalf("MC spread through the gateway: %d %v, want 200", code, body)
	}
	statcheck.Close(t, "merged LT MC spread", bodyFloat(t, body, "spread"), dist.ExpectedSpread(), sb)

	// At threshold 0.5 nodes 4 and 9 are in under LT (0.59) and out under
	// IC (0.467).
	const threshold = 0.5
	code, body = gwDo(t, rt, fmt.Sprintf("/v1/reliability?sources=0,5&threshold=0.5&samples=%d", trials))
	if code != http.StatusOK {
		t.Fatalf("reliability through the gateway: %d %v, want 200", code, body)
	}
	got := make(map[graph.NodeID]bool)
	for _, v := range bodyNodes(t, body, "nodes") {
		got[v] = true
	}
	rb := bound.Hoeffding(trials, statcheck.DefaultDelta).Union(g.NumNodes())
	for v, p := range dist.ReachProbabilities() {
		if statcheck.InMargin(p, threshold, rb) {
			continue
		}
		if want := p >= threshold; got[graph.NodeID(v)] != want {
			t.Errorf("node %d membership %v, exact LT prob %v vs threshold %v says %v", v, got[graph.NodeID(v)], p, threshold, want)
		}
	}
}
