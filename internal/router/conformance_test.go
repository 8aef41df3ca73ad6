package router

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/oracle"
	"soi/internal/scc"
	"soi/internal/server"
	"soi/internal/sketch"
	"soi/internal/statcheck"
	"soi/internal/telemetry"
)

// The router conformance fixture shards a graph the oracle can enumerate
// exactly: two disconnected copies of the paper's Figure-1 graph, which
// scc.Partition splits cleanly in two. Every scatter-gathered /v1 answer is
// then checked end to end — gateway parsing, sub-budget plumbing, shard
// serving, and merge math — against ground truth on the full graph.

const rcEll = 20000

// rcGraph is two disconnected Figure-1 graphs: cluster A on nodes 0-4
// (hub 4), cluster B on nodes 5-9 (hub 9).
func rcGraph() *graph.Graph {
	b := graph.NewBuilder(10)
	for _, off := range []graph.NodeID{0, 5} {
		b.AddEdge(off+4, off+0, 0.7)
		b.AddEdge(off+4, off+1, 0.4)
		b.AddEdge(off+4, off+3, 0.3)
		b.AddEdge(off+0, off+1, 0.1)
		b.AddEdge(off+3, off+1, 0.6)
		b.AddEdge(off+1, off+0, 0.1)
		b.AddEdge(off+1, off+2, 0.4)
	}
	return b.MustBuild()
}

type routerFixture struct {
	g       *graph.Graph
	part    *scc.Partitioning
	subs    []*graph.Graph
	members [][]graph.NodeID // global ids per shard, in shard dense order
	idx     []*index.Index
	sph     [][]core.Result
	sk      []*sketch.Sketch
	topo    *Topology
}

var (
	rfOnce sync.Once
	rfErr  error
	rf     *routerFixture
)

func routerFix(t testing.TB) *routerFixture {
	t.Helper()
	rfOnce.Do(func() { rfErr = buildRouterFixture() })
	if rfErr != nil {
		t.Fatal(rfErr)
	}
	return rf
}

func buildRouterFixture() error {
	g := rcGraph()
	// Pin the partition to the cluster boundary: the conformance suite tests
	// the serving/merge stack against a known-clean split, not the
	// partitioning heuristic (internal/scc/partition_test.go covers that).
	part := &scc.Partitioning{
		K:      2,
		Assign: []int32{0, 0, 0, 0, 0, 1, 1, 1, 1, 1},
		Shards: [][]graph.NodeID{{0, 1, 2, 3, 4}, {5, 6, 7, 8, 9}},
	}
	fx := &routerFixture{g: g, part: part}
	topo := &Topology{Format: TopologyFormat, NumNodes: g.NumNodes()}
	for s := 0; s < part.K; s++ {
		sub, members, err := part.Subgraph(g, s)
		if err != nil {
			return err
		}
		if len(members) != 5 {
			return fmt.Errorf("shard %d has %d nodes, want 5", s, len(members))
		}
		x, err := index.Build(context.Background(), sub, index.Options{Samples: rcEll, Seed: 90 + uint64(s)}, checkpoint.Config{})
		if err != nil {
			return err
		}
		sph, err := core.ComputeAll(context.Background(), x, core.Options{CostSamples: 200, CostSeed: 91}, checkpoint.Config{})
		if err != nil {
			return err
		}
		sk, err := sketch.Build(context.Background(), x, sketch.Options{Seed: 93 + uint64(s)})
		if err != nil {
			return err
		}
		nodes := make([]int64, len(members))
		for i, v := range members {
			nodes[i] = int64(v)
		}
		topo.Shards = append(topo.Shards, ShardManifest{
			ID: s, NumNodes: len(members), NumEdges: sub.NumEdges(), Nodes: nodes,
		})
		fx.subs = append(fx.subs, sub)
		fx.members = append(fx.members, members)
		fx.idx = append(fx.idx, x)
		fx.sph = append(fx.sph, sph)
		fx.sk = append(fx.sk, sk)
	}
	if err := topo.Validate(); err != nil {
		return err
	}
	fx.topo = topo
	rf = fx
	return nil
}

// newShardServer builds a fresh soid server over one shard's artifacts.
// Fresh per caller so tests never share result caches.
func newShardServer(t testing.TB, fx *routerFixture, s int) *server.Server {
	t.Helper()
	origIDs := make([]int64, len(fx.members[s]))
	for i, v := range fx.members[s] {
		origIDs[i] = int64(v)
	}
	srv, err := server.New(server.Config{
		OrigIDs:     origIDs,
		Index:       fx.idx[s],
		Spheres:     fx.sph[s],
		Sketch:      fx.sk[s],
		Telemetry:   telemetry.New(),
		CostSamples: rcEll,
		Trials:      rcEll,
		Seed:        92 + uint64(s),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

// startGateway stands up one httptest-backed soid per shard and a router
// over them, all torn down with the test.
func startGateway(t testing.TB, mutate func(*Config)) *Router {
	t.Helper()
	fx := routerFix(t)
	groups := make([][]string, fx.part.K)
	for s := 0; s < fx.part.K; s++ {
		ts := httptest.NewServer(newShardServer(t, fx, s).Handler())
		t.Cleanup(ts.Close)
		groups[s] = []string{ts.URL}
	}
	cfg := Config{
		Topology:      fx.topo,
		Replicas:      groups,
		MaxRetries:    1,
		RetryBase:     time.Millisecond,
		HedgeDelay:    -1,
		ProbeInterval: -1,
		Telemetry:     telemetry.New(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	rt, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		rt.Close()
		if tr, ok := rt.client.Transport.(*http.Transport); ok {
			tr.CloseIdleConnections()
		}
	})
	return rt
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

func gwDo(t testing.TB, rt *Router, url string) (int, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	var body map[string]any
	if rec.Body.Len() > 0 {
		if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
			t.Fatalf("GET %s: bad body %q: %v", url, rec.Body.String(), err)
		}
	}
	return rec.Code, body
}

// TestConformanceRouterSpread: the scatter-gathered cross-shard spread (both
// estimators) matches the exact expected spread on the full graph.
func TestConformanceRouterSpread(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)
	exact, err := oracle.ExpectedSpread(fx.g, []graph.NodeID{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	b := bound.Hoeffding(rcEll, statcheck.DefaultDelta).Scale(float64(fx.g.NumNodes()))

	for _, method := range []string{"index", "mc"} {
		code, body := gwDo(t, rt, "/v1/spread?seeds=4,9&method="+method+"&trials="+fmt.Sprint(rcEll))
		if code != http.StatusOK {
			t.Fatalf("method %s: status %d: %v", method, code, body)
		}
		statcheck.Close(t, "merged "+method+" spread", bodyFloat(t, body, "spread"), exact, b)
		if int(bodyFloat(t, body, "shards_total")) != 2 || int(bodyFloat(t, body, "shards_ok")) != 2 {
			t.Errorf("method %s: degrade info %v on a healthy scatter", method, body)
		}
	}
}

// TestConformanceRouterSphere: single-shard pass-through — the gateway
// relays the owning shard's sphere, whose held-out stability matches the
// oracle's exact rho of the returned set on the full graph (the partition is
// clean, so shard-local and global cascades coincide).
func TestConformanceRouterSphere(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)
	dist, err := oracle.CascadeDistribution(fx.g, []graph.NodeID{9})
	if err != nil {
		t.Fatal(err)
	}
	code, body := gwDo(t, rt, fmt.Sprintf("/v1/sphere/9?source=compute&samples=%d", rcEll))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	sphere := bodyNodes(t, body, "sphere")
	statcheck.Close(t, "routed sphere stability", bodyFloat(t, body, "stability"),
		dist.Rho(sphere), bound.Hoeffding(rcEll, statcheck.DefaultDelta))
}

// TestConformanceRouterReliability: threshold membership of the merged
// (unioned) reliable set against exact reach probabilities, asserted only
// outside the sampling margin.
func TestConformanceRouterReliability(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)
	exact, err := oracle.ReachProbabilities(fx.g, []graph.NodeID{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	const threshold = 0.3
	b := bound.Hoeffding(rcEll, statcheck.DefaultDelta).Union(fx.g.NumNodes())
	code, body := gwDo(t, rt, fmt.Sprintf("/v1/reliability?sources=4,9&threshold=0.3&samples=%d", rcEll))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
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

// TestConformanceRouterStability: single-owner seed sets are exact relays
// (checked against the oracle); a cross-shard seed set is the declared
// size-weighted combination of those exact per-shard answers.
func TestConformanceRouterStability(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)

	type shardAns struct {
		set  []graph.NodeID
		size float64
		stab float64
	}
	var parts []shardAns
	for _, seed := range []graph.NodeID{4, 9} {
		dist, err := oracle.CascadeDistribution(fx.g, []graph.NodeID{seed})
		if err != nil {
			t.Fatal(err)
		}
		code, body := gwDo(t, rt, fmt.Sprintf("/v1/stability?seeds=%d&samples=%d", seed, rcEll))
		if code != http.StatusOK {
			t.Fatalf("seed %d: status %d: %v", seed, code, body)
		}
		set := bodyNodes(t, body, "set")
		stab := bodyFloat(t, body, "stability")
		statcheck.Close(t, fmt.Sprintf("routed stability of seed %d", seed),
			stab, dist.Rho(set), bound.Hoeffding(rcEll, statcheck.DefaultDelta))
		parts = append(parts, shardAns{set: set, size: float64(len(set)), stab: stab})
	}

	code, body := gwDo(t, rt, fmt.Sprintf("/v1/stability?seeds=4,9&samples=%d", rcEll))
	if code != http.StatusOK {
		t.Fatalf("cross-shard: status %d: %v", code, body)
	}
	if got := body["approximation"]; got != "size_weighted_union" {
		t.Errorf("approximation = %v, want size_weighted_union", got)
	}
	// The shard answers are deterministic (fixed server seeds), so the merge
	// must reproduce the size-weighted mean exactly.
	want := (parts[0].size*parts[0].stab + parts[1].size*parts[1].stab) / (parts[0].size + parts[1].size)
	if got := bodyFloat(t, body, "stability"); math.Abs(got-want) > 1e-9 {
		t.Errorf("merged stability %v, want size-weighted %v", got, want)
	}
	if got := len(bodyNodes(t, body, "set")); got != len(parts[0].set)+len(parts[1].set) {
		t.Errorf("merged set size %d, want disjoint union %d", got, len(parts[0].set)+len(parts[1].set))
	}
}

// TestConformanceRouterSeeds: the k-way merged greedy answer honors the
// (1-1/e) guarantee against the exhaustive coverage optimum over the same
// per-shard sphere stores the shards serve from.
func TestConformanceRouterSeeds(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)
	n := fx.g.NumNodes()
	masks := make([]uint64, n)
	for s := range fx.sph {
		for v, res := range fx.sph[s] {
			global := make([]graph.NodeID, len(res.Set))
			for i, u := range res.Set {
				global[i] = fx.members[s][u]
			}
			masks[fx.members[s][v]] = oracle.MaskOf(global)
		}
	}
	const k = 4
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

	code, body := gwDo(t, rt, fmt.Sprintf("/v1/seeds?k=%d", k))
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	got := bodyFloat(t, body, "objective")
	const oneMinusInvE = 1 - 0.36787944117144233
	if got < oneMinusInvE*float64(best)-1e-12 {
		t.Errorf("merged objective %v < (1-1/e)*%d = %v", got, best, oneMinusInvE*float64(best))
	}
	if seeds := bodyNodes(t, body, "seeds"); len(seeds) != k {
		t.Errorf("merged seeds %v, want %d of them", seeds, k)
	}
	if cov := bodyFloat(t, body, "coverage"); math.Abs(cov-got/float64(n)) > 1e-12 {
		t.Errorf("coverage %v inconsistent with objective %v over %d nodes", cov, got, n)
	}
}

// TestConformanceRouterShardPartial206: when shards truncate under the
// budget and answer 206, the gateway's merged answer is 206 too, and its
// widened error bound still brackets the exact value.
func TestConformanceRouterShardPartial206(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)
	exact, err := oracle.ExpectedSpread(fx.g, []graph.NodeID{4, 9})
	if err != nil {
		t.Fatal(err)
	}
	// Eat most of each shard's 250ms sub-budget with an armed compute delay:
	// the ~30ms left cannot finish 200k trials (~55ms of sampling), so the
	// shards answer 206 with the achieved-trial estimate and its bound. The
	// trial count is kept small so the sampler's (uninterruptible) per-trial
	// RNG setup still fits inside the gateway's 500ms client deadline even
	// under -race with both legs setting up concurrently — a leg cancelled
	// by the client context would read as a dead shard, not a degraded one.
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{Kind: fault.KindDelay, Delay: 200 * time.Millisecond}); err != nil {
		t.Fatal(err)
	}
	code, body := gwDo(t, rt, "/v1/spread?seeds=4,9&method=mc&trials=200000&budget=500ms")
	if code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206 from budget-truncated shards: %v", code, body)
	}
	if body["partial"] != true {
		t.Errorf("partial flag missing: %v", body)
	}
	if int(bodyFloat(t, body, "shards_ok")) != 2 {
		t.Errorf("shards_ok %v, want 2 (degraded, not dead)", body["shards_ok"])
	}
	served := bodyFloat(t, body, "error_bound")
	if served <= 0 {
		t.Fatalf("error bound %v, want > 0 on a truncated answer", served)
	}
	// The reported bound already covers the truncation; add conservative
	// statistical slack for the (at least ~1k) achieved trials.
	slack := bound.Hoeffding(1000, statcheck.DefaultDelta).Scale(float64(fx.g.NumNodes())).Eps
	if got := bodyFloat(t, body, "spread"); math.Abs(got-exact) > served+slack {
		t.Errorf("truncated spread %v outside exact %v ± (bound %v + slack %v)", got, exact, served, slack)
	}
	if rt.cfg.Telemetry.Counter("router.degraded").Value() != 1 {
		t.Errorf("degraded counter = %d, want 1", rt.cfg.Telemetry.Counter("router.degraded").Value())
	}
}

// TestConformanceRouterSketchHealthy200: a sketch answer's Cohen bound is
// the estimator's own accuracy, not degradation. With both shards healthy
// and no cut edges, estimator=sketch spread and seeds answer 200 with
// error_bound the sum of the shard bounds; a leg that answers 206 itself
// still makes the merged answer 206.
func TestConformanceRouterSketchHealthy200(t *testing.T) {
	rt := startGateway(t, nil)
	fx := routerFix(t)
	// shardDo queries shard s directly, as the gateway's leg would.
	shardDo := func(s int, url string) shardReply {
		rec := httptest.NewRecorder()
		newShardServer(t, fx, s).Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return shardReply{Shard: s, Status: rec.Code, Body: rec.Body.Bytes()}
	}
	bound := func(leg shardReply) float64 {
		var p api.Partial
		if err := json.Unmarshal(leg.Body, &p); err != nil || leg.Status != http.StatusOK || p.ErrorBound <= 0 {
			t.Fatalf("shard %d: status %d, body %s: want a 200 sketch answer with a bound", leg.Shard, leg.Status, leg.Body)
		}
		return p.ErrorBound
	}

	spreadLegs := []shardReply{
		shardDo(0, "/v1/spread?seeds=4&estimator=sketch"),
		shardDo(1, "/v1/spread?seeds=9&estimator=sketch"),
	}
	seedsLegs := []shardReply{
		shardDo(0, "/v1/seeds?k=3&estimator=sketch"),
		shardDo(1, "/v1/seeds?k=3&estimator=sketch"),
	}
	for _, tc := range []struct {
		url  string
		legs []shardReply
	}{
		{"/v1/spread?seeds=4,9&estimator=sketch", spreadLegs},
		{"/v1/seeds?k=3&estimator=sketch", seedsLegs},
	} {
		code, body := gwDo(t, rt, tc.url)
		if code != http.StatusOK || body["partial"] != nil {
			t.Fatalf("%s: status %d, body %v: want 200 from two healthy shards", tc.url, code, body)
		}
		want := bound(tc.legs[0]) + bound(tc.legs[1])
		if got := bodyFloat(t, body, "error_bound"); math.Abs(got-want) > 1e-9*want {
			t.Errorf("%s: error_bound %v, want the shard bounds' sum %v", tc.url, got, want)
		}
	}

	// The same legs with shard 1 answering 206 itself merge to a partial
	// answer.
	var partial map[string]any
	if err := json.Unmarshal(spreadLegs[1].Body, &partial); err != nil {
		t.Fatal(err)
	}
	partial["partial"] = true
	spreadLegs[1].Status = http.StatusPartialContent
	spreadLegs[1].Body, _ = json.Marshal(partial)
	resp, err := rt.mergeSpread(spreadLegs, map[int][]int64{0: {4}, 1: {9}}, []int64{4, 9}, "index")
	if err != nil {
		t.Fatal(err)
	}
	if !resp.Degraded || resp.ShardsOK != 2 {
		t.Errorf("one leg answered 206: merged partial %v, shards_ok %d; want partial with both shards ok", resp.Degraded, resp.ShardsOK)
	}
}

func TestConformanceRouterInfo(t *testing.T) {
	rt := startGateway(t, nil)
	code, body := gwDo(t, rt, "/v1/info")
	if code != http.StatusOK {
		t.Fatalf("status %d: %v", code, body)
	}
	if int(bodyFloat(t, body, "shards")) != 2 || int(bodyFloat(t, body, "nodes")) != 10 ||
		int(bodyFloat(t, body, "cut_edges")) != 0 {
		t.Errorf("info %v", body)
	}
}
