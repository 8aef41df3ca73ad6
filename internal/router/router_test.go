package router

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync/atomic"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/daemon"
	"soi/internal/telemetry"
)

// newTestRouter builds a router over testTopology with one replica group per
// shard. Probing is off and hedging disabled unless the config overrides say
// otherwise, so tests control every moving part.
func newTestRouter(t *testing.T, mutate func(*Config), groups ...[]string) *Router {
	t.Helper()
	cfg := Config{
		Topology:      testTopology(),
		Replicas:      groups,
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		HedgeDelay:    -1,
		ProbeInterval: -1,
		Telemetry:     telemetry.New(),
	}
	if mutate != nil {
		mutate(&cfg)
	}
	r, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(r.Close)
	return r
}

func TestFetchShardRetriesRetryableEnvelope(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		if calls.Add(1) <= 2 {
			api.WriteError(w, &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeOverloaded, Msg: "queue full", RetryAfter: time.Millisecond})
			return
		}
		fmt.Fprint(w, `{"spread":1.5}`)
	}))
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})

	leg := r.fetchShard(context.Background(), 0, "/v1/spread?seeds=0")
	if !leg.ok() {
		t.Fatalf("leg failed after retries: status=%d err=%v", leg.Status, leg.Err)
	}
	if got := calls.Load(); got != 3 {
		t.Fatalf("backend saw %d calls, want 3 (initial + 2 retries)", got)
	}
	if got := r.mRetries.Value(); got != 2 {
		t.Fatalf("retry counter = %d, want 2", got)
	}
}

func TestFetchShardDoesNotRetryPermanentErrors(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		api.WriteError(w, &api.Error{Status: http.StatusBadRequest, Code: api.CodeBadRequest, Msg: "bad seeds"})
	}))
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})

	leg := r.fetchShard(context.Background(), 0, "/v1/spread?seeds=zzz")
	if leg.Err != nil || leg.Status != http.StatusBadRequest {
		t.Fatalf("leg = status %d err %v, want relayed 400", leg.Status, leg.Err)
	}
	if got := calls.Load(); got != 1 {
		t.Fatalf("backend saw %d calls, want 1 (permanent errors are not retried)", got)
	}
}

func TestFetchShardExhaustsRetriesOnDeadBackend(t *testing.T) {
	// A listener that is already closed: every attempt is a connection error.
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()
	r := newTestRouter(t, nil, []string{deadURL}, []string{deadURL})

	leg := r.fetchShard(context.Background(), 1, "/v1/spread?seeds=10")
	if leg.Err == nil {
		t.Fatalf("leg succeeded against a dead backend: %+v", leg)
	}
	if got := r.mShardErrs.Value(); got != 3 {
		t.Fatalf("shard error counter = %d, want 3 (initial + 2 retries)", got)
	}
}

func TestRetryFailsOverToSecondReplica(t *testing.T) {
	bad := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.WriteHeader(http.StatusInternalServerError) // bare 5xx: retryable
	}))
	defer bad.Close()
	good := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"spread":2}`)
	}))
	defer good.Close()
	r := newTestRouter(t, nil, []string{bad.URL, good.URL}, []string{bad.URL})

	leg := r.fetchShard(context.Background(), 0, "/v1/spread?seeds=0")
	if !leg.ok() {
		t.Fatalf("leg failed: status=%d err=%v (retry should rotate to the healthy replica)", leg.Status, leg.Err)
	}
	var body struct {
		Spread float64 `json:"spread"`
	}
	if err := json.Unmarshal(leg.Body, &body); err != nil || body.Spread != 2 {
		t.Fatalf("body %s from wrong replica", leg.Body)
	}
}

func TestHedgeFiresOnStragglerAndAltWins(t *testing.T) {
	release := make(chan struct{})
	slow := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-release:
		case <-req.Context().Done():
			return
		}
		fmt.Fprint(w, `{"spread":1}`)
	}))
	defer slow.Close()
	defer close(release)
	fast := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"spread":9}`)
	}))
	defer fast.Close()

	r := newTestRouter(t, func(c *Config) { c.HedgeDelay = 5 * time.Millisecond },
		[]string{slow.URL, fast.URL}, []string{slow.URL})

	leg := r.fetchShard(context.Background(), 0, "/v1/spread?seeds=0")
	if !leg.ok() {
		t.Fatalf("leg failed: status=%d err=%v", leg.Status, leg.Err)
	}
	var body struct {
		Spread float64 `json:"spread"`
	}
	if err := json.Unmarshal(leg.Body, &body); err != nil || body.Spread != 9 {
		t.Fatalf("body %s, want the hedge leg's answer", leg.Body)
	}
	if r.mHedges.Value() != 1 || r.mHedgeWins.Value() != 1 {
		t.Fatalf("hedges=%d hedge_wins=%d, want 1/1", r.mHedges.Value(), r.mHedgeWins.Value())
	}
}

func TestBreakerShortCircuitsRepeatedFailures(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		calls.Add(1)
		w.WriteHeader(http.StatusInternalServerError)
	}))
	defer ts.Close()
	r := newTestRouter(t, func(c *Config) {
		c.BreakerFailures = 3
		c.BreakerCooldown = time.Hour
	}, []string{ts.URL}, []string{ts.URL})

	r.fetchShard(context.Background(), 0, "/v1/spread?seeds=0") // 3 attempts trip the breaker
	if got := r.shards[0][0].breaker.State(); got != BreakerOpen {
		t.Fatalf("breaker state = %v after repeated failures, want open", got)
	}
	before := calls.Load()
	leg := r.fetchShard(context.Background(), 0, "/v1/spread?seeds=0")
	if leg.Err == nil {
		t.Fatalf("open breaker produced a success: %+v", leg)
	}
	if calls.Load() != before {
		t.Fatal("open breaker still sent traffic to the backend")
	}
}

// TestSubQueryShrinksBudget: the shard leg's budget is the client budget
// minus the merge grace, floored at half the client budget.
func TestSubQueryShrinksBudget(t *testing.T) {
	var captured atomic.Value
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		captured.Store(req.URL.Query().Get("budget"))
		fmt.Fprint(w, `{"spread":1,"method":"index"}`)
	}))
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=0&budget=1s", nil))
	if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := captured.Load(); got != "700ms" {
		t.Fatalf("shard saw budget %v, want 700ms (1s - 300ms grace)", got)
	}

	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=1,10&budget=400ms", nil))
	if got := captured.Load(); got != "200ms" {
		t.Fatalf("shard saw budget %v, want 200ms (floored at budget/2)", got)
	}
}

func TestGatewayRequestValidation(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{}`)
	}))
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})

	cases := []struct {
		url        string
		wantStatus int
		wantCode   string
	}{
		{"/v1/spread?seeds=99", http.StatusNotFound, api.CodeNotFound},   // unknown node
		{"/v1/spread?seeds=", http.StatusBadRequest, api.CodeBadRequest}, // missing seeds
		{"/v1/spread?seeds=0&budget=bogus", http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/seeds", http.StatusBadRequest, api.CodeBadRequest},      // missing k
		{"/v1/seeds?k=0", http.StatusBadRequest, api.CodeBadRequest},  // k out of range
		{"/v1/seeds?k=99", http.StatusBadRequest, api.CodeBadRequest}, // k > NumNodes
		{"/v1/sphere/abc", http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/sphere/55", http.StatusNotFound, api.CodeNotFound},
		{"/v1/reliability?sources=0&threshold=2", http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/reliability?sources=0&threshold=0", http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/reliability?sources=0&threshold=-1", http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/reliability?sources=0&threshold=NaN", http.StatusBadRequest, api.CodeBadRequest},
		{"/v1/reliability?sources=0&threshold=Inf", http.StatusBadRequest, api.CodeBadRequest},
	}
	for _, tc := range cases {
		rec := httptest.NewRecorder()
		r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", tc.url, nil))
		if rec.Code != tc.wantStatus {
			t.Errorf("%s: status %d, want %d (%s)", tc.url, rec.Code, tc.wantStatus, rec.Body.String())
			continue
		}
		var env api.ErrorEnvelope
		if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != tc.wantCode {
			t.Errorf("%s: envelope %s, want code %q", tc.url, rec.Body.String(), tc.wantCode)
		}
	}
}

// TestGatewayRelaysShardClientErrors: a request every shard refuses as
// malformed is the client's error, not a shard outage. The gateway relays
// the shards' 400 envelope instead of merging a 206 in which every shard
// "failed", and no breaker counts the refusal against its replica.
func TestGatewayRelaysShardClientErrors(t *testing.T) {
	rt := startGateway(t, nil)
	for _, url := range []string{
		"/v1/spread?seeds=4,9&method=bogus",
		"/v1/spread?seeds=4,9&estimator=bogus",
		"/v1/seeds?k=3&estimator=bogus",
		"/v1/reliability?sources=4,9&samples=0",
		"/v1/stability?seeds=4,9&samples=0",
		"/v1/reliability?sources=4,9&threshold=2",
	} {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		var env api.ErrorEnvelope
		if rec.Code != http.StatusBadRequest || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
			env.Error.Code != api.CodeBadRequest || env.Error.Message == "" {
			t.Errorf("%s: status %d body %s, want a 400 bad_request envelope", url, rec.Code, rec.Body.String())
		}
	}
	for s, group := range rt.shards {
		for _, rep := range group {
			rep.breaker.mu.Lock()
			state, fails := rep.breaker.state, rep.breaker.fails
			rep.breaker.mu.Unlock()
			if state != BreakerClosed || fails != 0 {
				t.Errorf("shard %d breaker %v with %d failures, want closed with none", s, state, fails)
			}
		}
	}
	if n := rt.mShardErrs.Value(); n != 0 || rt.cfg.Telemetry.Counter("router.degraded").Value() != 0 {
		t.Errorf("shard errors %d, degraded %d; want 0 and 0", n, rt.cfg.Telemetry.Counter("router.degraded").Value())
	}
}

func TestGatewayDrainingRefusesNewRequests(t *testing.T) {
	ts := httptest.NewServer(http.NotFoundHandler())
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})
	r.Drain()

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=0", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("status %d, want 503 while draining", rec.Code)
	}
	var env api.ErrorEnvelope
	if json.Unmarshal(rec.Body.Bytes(), &env) != nil || env.Error.Code != api.CodeDraining {
		t.Fatalf("envelope %s, want code draining", rec.Body.String())
	}

	rec = httptest.NewRecorder()
	r.handleReadyz(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("readyz status %d while draining, want 503", rec.Code)
	}
}

// TestGatewayGracefulDrain drains the gateway behind the one daemon
// listener while a scatter is in flight: the in-flight request still gets
// its 200, the listener refuses new connections afterwards, and the handler
// itself answers 503 "draining".
func TestGatewayGracefulDrain(t *testing.T) {
	arrived, release := make(chan struct{}, 1), make(chan struct{})
	shard := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		select {
		case arrived <- struct{}{}:
		default:
		}
		<-release
		fmt.Fprint(w, `{"node":1}`)
	}))
	defer shard.Close()
	r := newTestRouter(t, nil, []string{shard.URL}, []string{shard.URL})
	gate := daemon.NewGate()
	gate.Ready(r.Handler())
	addr, err := gate.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}

	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/sphere/1")
		if err != nil {
			slow <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	<-arrived // the request is now in flight at the shard

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		r.Drain()
		done <- gate.Shutdown(ctx)
	}()
	// Release the shard only once the listener has stopped accepting.
	for {
		conn, err := net.Dial("tcp", addr)
		if err != nil {
			break
		}
		conn.Close()
		time.Sleep(5 * time.Millisecond)
	}
	close(release)

	if code := <-slow; code != http.StatusOK {
		t.Fatalf("in-flight request during drain got %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("gateway still accepting connections after Shutdown")
	}
	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sphere/1", nil))
	var env api.ErrorEnvelope
	if rec.Code != http.StatusServiceUnavailable || json.Unmarshal(rec.Body.Bytes(), &env) != nil ||
		env.Error.Code != api.CodeDraining {
		t.Fatalf("drained handler: status %d body %s, want 503 draining", rec.Code, rec.Body.String())
	}
}

// --- merge math -----------------------------------------------------------

func okLeg(shard int, v any) shardReply {
	b, _ := json.Marshal(v)
	return shardReply{Shard: shard, Status: http.StatusOK, Body: b}
}

func deadLeg(shard int) shardReply {
	return shardReply{Shard: shard, Err: fmt.Errorf("connection refused")}
}

func TestMergeSpreadDeadShardWidensBound(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	seedsByShard := map[int][]int64{0: {0}, 1: {10, 11}}
	legs := []shardReply{
		okLeg(0, api.Spread{Spread: 2.5}),
		deadLeg(1),
	}
	resp, err := r.mergeSpread(legs, seedsByShard, []int64{0, 10, 11}, "index")
	if err != nil {
		t.Fatal(err)
	}
	// Dead shard 1: its 2 seeds are active (lower bound), its third node is
	// unknown. Cut accounting from testTopology adds CutBound 0.75.
	if want := 2.5 + 2; resp.Spread != want {
		t.Errorf("spread = %v, want %v", resp.Spread, want)
	}
	if want := 1 + 0.75; resp.ErrorBound != want {
		t.Errorf("error bound = %v, want %v", resp.ErrorBound, want)
	}
	if !resp.Degraded || resp.ShardsOK != 1 || resp.ShardsTotal != 2 ||
		len(resp.FailedShards) != 1 || resp.FailedShards[0] != 1 {
		t.Errorf("degrade info wrong: %+v", resp.Partial)
	}
}

func TestMergeSeedsKWayMergeIsGainOrdered(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	legs := []shardReply{
		okLeg(0, api.Seeds{Seeds: []int64{2, 0}, Gains: []float64{3, 1}, Objective: 4, LazyEvaluations: 5}),
		okLeg(1, api.Seeds{Seeds: []int64{11, 12}, Gains: []float64{2.5, 2}, Objective: 4.5, LazyEvaluations: 7}),
	}
	resp, err := r.mergeSeeds(legs, 3)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{2, 11, 12}; len(resp.Seeds) != 3 ||
		resp.Seeds[0] != want[0] || resp.Seeds[1] != want[1] || resp.Seeds[2] != want[2] {
		t.Errorf("merged seeds = %v, want %v", resp.Seeds, want)
	}
	if resp.Objective != 7.5 || resp.LazyEvaluations != 12 {
		t.Errorf("objective=%v lazy=%d, want 7.5/12", resp.Objective, resp.LazyEvaluations)
	}
	if resp.Coverage != 7.5/6 {
		t.Errorf("coverage = %v", resp.Coverage)
	}
}

func TestMergeSeedsDeadShardAndShortfall(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	legs := []shardReply{
		okLeg(0, api.Seeds{Seeds: []int64{2}, Gains: []float64{3}, Objective: 3}),
		deadLeg(1),
	}
	resp, err := r.mergeSeeds(legs, 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(resp.Seeds) != 1 || !resp.Degraded {
		t.Errorf("want partial single-seed answer, got %+v", resp)
	}
	// Dead shard could have covered all 3 of its nodes; cut adds 0.75.
	if want := 3 + 0.75; resp.ErrorBound != want {
		t.Errorf("error bound = %v, want %v", resp.ErrorBound, want)
	}
}

func TestMergeReliabilityUnionAndBounds(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	legs := []shardReply{
		okLeg(0, api.Reliability{Nodes: []int64{2, 0}, Samples: 900,
			Partial: api.Partial{ErrorBound: 0.02}}),
		okLeg(1, api.Reliability{Nodes: []int64{11}, Samples: 1000,
			Partial: api.Partial{ErrorBound: 0.05, Degraded: true}}),
	}
	resp, err := r.mergeReliability(legs, []int64{0, 10}, 0.5)
	if err != nil {
		t.Fatal(err)
	}
	if want := []int64{0, 2, 11}; len(resp.Nodes) != 3 || resp.Nodes[0] != 0 || resp.Nodes[2] != 11 {
		t.Errorf("nodes = %v, want %v", resp.Nodes, want)
	}
	if resp.Samples != 900 || resp.Count != 3 {
		t.Errorf("samples=%d count=%d", resp.Samples, resp.Count)
	}
	// max shard bound + CutProb.
	if want := 0.05 + 0.25; resp.ErrorBound != want {
		t.Errorf("error bound = %v, want %v", resp.ErrorBound, want)
	}
	if !resp.Degraded {
		t.Error("bound-widened answer not flagged partial")
	}
}

func TestMergeStabilityWeightsAndDeadSeeds(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	seedsByShard := map[int][]int64{0: {0}, 1: {10}}
	legs := []shardReply{
		okLeg(0, api.Stability{Set: []int64{0, 1, 2}, SampleCost: 0.3, Stability: 0.7, Samples: 200}),
		okLeg(1, api.Stability{Set: []int64{10}, SampleCost: 0.1, Stability: 0.9, Samples: 300}),
	}
	resp, err := r.mergeStability(legs, seedsByShard, []int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if resp.Approximation != "size_weighted_union" {
		t.Errorf("approximation = %q", resp.Approximation)
	}
	wantStab := (3*0.7 + 1*0.9) / 4
	if diff := resp.Stability - wantStab; diff > 1e-12 || diff < -1e-12 {
		t.Errorf("stability = %v, want size-weighted %v", resp.Stability, wantStab)
	}
	if resp.Size != 4 || resp.Samples != 200 {
		t.Errorf("size=%d samples=%d", resp.Size, resp.Samples)
	}

	// One dead shard: its seed fraction widens the Jaccard-scale bound.
	legs[1] = deadLeg(1)
	resp, err = r.mergeStability(legs, seedsByShard, []int64{0, 10})
	if err != nil {
		t.Fatal(err)
	}
	if want := 0.25 + 0.5; resp.ErrorBound != want { // CutProb + deadSeeds/totalSeeds
		t.Errorf("error bound = %v, want %v", resp.ErrorBound, want)
	}
	if resp.MissingNodes != 3 || !resp.Degraded {
		t.Errorf("degrade info wrong: %+v", resp.Partial)
	}
}

func TestMergeMalformedOKLegIsAHardError(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	legs := []shardReply{
		{Shard: 0, Status: http.StatusOK, Body: []byte("not json")},
		okLeg(1, api.Spread{Spread: 1}),
	}
	if _, err := r.mergeSpread(legs, map[int][]int64{}, nil, "index"); err == nil {
		t.Fatal("malformed 200 body merged silently; want a hard error")
	}
}

func TestParseReplicaWiringValidation(t *testing.T) {
	if _, err := New(Config{Topology: testTopology(), Replicas: [][]string{{"http://a"}}}); err == nil {
		t.Fatal("New accepted 1 replica group for 2 shards")
	}
	if _, err := New(Config{Topology: testTopology(), Replicas: [][]string{{"http://a"}, {}}}); err == nil {
		t.Fatal("New accepted an empty replica group")
	}
	if _, err := New(Config{}); err == nil {
		t.Fatal("New accepted a nil topology")
	}
}

// TestSubQueryIsDeterministic: identical requests produce identical shard
// queries (sorted parameters), keeping shard-side caches effective.
func TestSubQueryIsDeterministic(t *testing.T) {
	r := newTestRouter(t, nil, []string{"http://unused"}, []string{"http://unused"})
	// Run subQuery under the pipeline, which puts the request budget on the
	// context.
	var q1, q2 string
	probe := r.env.Endpoint("probe", false, func(req *http.Request) (*daemon.Answer, error) {
		q1 = r.subQuery(req, map[string]string{"seeds": "0"})
		q2 = r.subQuery(req, map[string]string{"seeds": "0"})
		return daemon.Encode(struct{}{})
	})
	probe.ServeHTTP(httptest.NewRecorder(), httptest.NewRequest("GET", "/v1/spread?seeds=0&method=mc&trials=50&budget=1s", nil))
	if q1 != q2 {
		t.Fatalf("subQuery not deterministic: %q vs %q", q1, q2)
	}
	vals, err := url.ParseQuery(q1[1:])
	if err != nil || vals.Get("budget") != "700ms" || vals.Get("trials") != "50" {
		t.Fatalf("subQuery %q lost parameters", q1)
	}
}

func TestParseRetryAfter(t *testing.T) {
	now := time.Date(2026, 1, 2, 15, 4, 5, 0, time.UTC)
	for _, tc := range []struct {
		in   string
		want time.Duration
	}{
		{"", 0},
		{"3", 3 * time.Second},
		{" 10 ", 10 * time.Second},
		{"0", 0},
		{"-5", 0},
		{"soon", 0},
		{now.Add(30 * time.Second).Format(http.TimeFormat), 30 * time.Second},
		{now.Add(-30 * time.Second).Format(http.TimeFormat), 0}, // already past
	} {
		if got := parseRetryAfter(tc.in, now); got != tc.want {
			t.Errorf("parseRetryAfter(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
}

// TestRetryAfterHeaderHonored scripts a backend that signals backoff only
// through the standard Retry-After header — the one channel a proxy or
// non-soi origin in front of a shard has — and asserts the attempt surfaces
// the hint. No sleeping: the test inspects attemptOut, not the backoff.
func TestRetryAfterHeaderHonored(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		switch req.URL.Query().Get("mode") {
		case "delta":
			w.Header().Set("Retry-After", "3")
			http.Error(w, "busy", http.StatusTooManyRequests)
		case "date":
			w.Header().Set("Retry-After", time.Now().Add(90*time.Second).UTC().Format(http.TimeFormat))
			http.Error(w, "busy", http.StatusTooManyRequests)
		case "both":
			// Envelope says 250ms, header says 2s: the longer wait wins.
			w.Header().Set("Retry-After", "2")
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			fmt.Fprint(w, `{"error":{"code":"overloaded","message":"queue full","retry_after_ms":250}}`)
		case "garbage":
			w.Header().Set("Retry-After", "in a bit")
			http.Error(w, "busy", http.StatusTooManyRequests)
		}
	}))
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})

	if out := r.doGET(context.Background(), ts.URL+"/?mode=delta"); out.retryAfter != 3*time.Second {
		t.Fatalf("delta-seconds: retryAfter %v, want 3s", out.retryAfter)
	}
	out := r.doGET(context.Background(), ts.URL+"/?mode=date")
	if out.retryAfter < 60*time.Second || out.retryAfter > 91*time.Second {
		t.Fatalf("HTTP-date: retryAfter %v, want ~90s", out.retryAfter)
	}
	if out := r.doGET(context.Background(), ts.URL+"/?mode=both"); out.retryAfter != 2*time.Second {
		t.Fatalf("header vs envelope: retryAfter %v, want the larger 2s", out.retryAfter)
	}
	if out := r.doGET(context.Background(), ts.URL+"/?mode=garbage"); out.retryAfter != 0 {
		t.Fatalf("garbage header: retryAfter %v, want 0", out.retryAfter)
	}
}
