package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
	"soi/internal/telemetry"
)

// testGraph builds a ~40-node graph with a mix of strong chains and weak
// shortcuts, large enough that sphere queries do real work.
func testGraph(t testing.TB) *graph.Graph {
	t.Helper()
	const n = 40
	b := graph.NewBuilder(n)
	for i := 0; i < n-1; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.8)
	}
	for i := 0; i < n-5; i += 3 {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+5), 0.3)
	}
	for i := 0; i < n-7; i += 7 {
		b.AddEdge(graph.NodeID(i+7), graph.NodeID(i), 0.2)
	}
	return b.MustBuild()
}

type fixture struct {
	g       *graph.Graph
	x       *index.Index
	spheres []core.Result
}

var (
	fixOnce sync.Once
	fix     fixture
)

// sharedFixture builds the graph/index/spheres triple once per test binary;
// the artifacts are immutable, so tests and benchmarks can share them.
func sharedFixture(t testing.TB) fixture {
	t.Helper()
	fixOnce.Do(func() {
		g := testGraph(t)
		x, err := index.Build(context.Background(), g, index.Options{Samples: 120, Seed: 5}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		spheres, err := core.ComputeAll(context.Background(), x, core.Options{CostSamples: 30, CostSeed: 9}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		fix = fixture{g: g, x: x, spheres: spheres}
	})
	return fix
}

func newTestServer(t testing.TB, mutate func(*Config)) *Server {
	t.Helper()
	f := sharedFixture(t)
	cfg := Config{
		Index:       f.x,
		Spheres:     f.spheres,
		Telemetry:   telemetry.New(),
		MaxInflight: 8,
		MaxQueue:    256,
		CostSamples: 20,
		Trials:      50,
		Seed:        11,
	}
	if mutate != nil {
		mutate(&cfg)
	}
	s, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// do performs a request against the handler directly and decodes the JSON
// body into a generic map.
func do(t testing.TB, s *Server, url string) (*httptest.ResponseRecorder, map[string]any) {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	var body map[string]any
	if err := json.Unmarshal(rec.Body.Bytes(), &body); err != nil {
		t.Fatalf("GET %s: bad JSON %q: %v", url, rec.Body.String(), err)
	}
	return rec, body
}

func TestSphereFromStore(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/sphere/3")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["source"] != "store" {
		t.Fatalf("source %v, want store", body["source"])
	}
	if body["node"] != float64(3) {
		t.Fatalf("node %v, want 3", body["node"])
	}
	members, ok := body["sphere"].([]any)
	if !ok || len(members) == 0 {
		t.Fatalf("sphere %v, want non-empty list", body["sphere"])
	}
	found := false
	for _, m := range members {
		if m == float64(3) {
			found = true
		}
	}
	if !found {
		t.Fatalf("sphere %v does not contain its source 3", members)
	}
}

func TestSphereComputedMatchesStore(t *testing.T) {
	s := newTestServer(t, nil)
	_, stored := do(t, s, "/v1/sphere/5?source=store")
	rec, computed := do(t, s, "/v1/sphere/5?source=compute&samples=0")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if computed["source"] != "computed" {
		t.Fatalf("source %v, want computed", computed["source"])
	}
	if fmt.Sprint(stored["sphere"]) != fmt.Sprint(computed["sphere"]) {
		t.Fatalf("computed sphere %v != stored %v", computed["sphere"], stored["sphere"])
	}
}

func TestSphereComputeStability(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/sphere/2?source=compute&samples=25")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	stab, ok := body["stability"].(float64)
	if !ok {
		t.Fatalf("stability missing: %v", body)
	}
	if stab < 0 || stab > 1 {
		t.Fatalf("stability %v outside [0,1]", stab)
	}
	if body["stability_samples"] != float64(25) {
		t.Fatalf("stability_samples %v, want 25", body["stability_samples"])
	}
}

func TestNodeErrors(t *testing.T) {
	s := newTestServer(t, nil)
	for _, tc := range []struct {
		url  string
		code int
	}{
		{"/v1/sphere/99999", 404},
		{"/v1/sphere/junk", 400},
		{"/v1/sphere/3?source=bogus", 400},
		{"/v1/sphere/3?budget=nonsense", 400},
		{"/v1/stability?seeds=1,junk", 400},
		{"/v1/stability?samples=5", 400}, // missing seeds
		{"/v1/seeds?k=0", 400},
		{"/v1/spread?seeds=1&method=bogus", 400},
		{"/v1/reliability?sources=1&threshold=abc", 400},
		// A threshold must be a finite probability in (0, 1].
		{"/v1/reliability?sources=1&threshold=2", 400},
		{"/v1/reliability?sources=1&threshold=0", 400},
		{"/v1/reliability?sources=1&threshold=-1", 400},
		{"/v1/reliability?sources=1&threshold=NaN", 400},
		{"/v1/reliability?sources=1&threshold=Inf", 400},
		{"/v1/modes/99999", 404},
	} {
		rec, body := do(t, s, tc.url)
		if rec.Code != tc.code {
			t.Errorf("GET %s: status %d, want %d (%s)", tc.url, rec.Code, tc.code, rec.Body.String())
		}
		code, msg := envelope(t, body)
		if msg == "" {
			t.Errorf("GET %s: no error message", tc.url)
		}
		want := api.CodeBadRequest
		if tc.code == 404 {
			want = api.CodeNotFound
		}
		if code != want {
			t.Errorf("GET %s: error code %q, want %q", tc.url, code, want)
		}
	}
}

// envelope unpacks the standard {"error":{"code","message","retry_after_ms"}}
// body, failing the test on any other shape.
func envelope(t testing.TB, body map[string]any) (code, msg string) {
	t.Helper()
	obj, ok := body["error"].(map[string]any)
	if !ok {
		t.Fatalf(`error body %v, want an {"error":{...}} envelope`, body)
	}
	code, _ = obj["code"].(string)
	msg, _ = obj["message"].(string)
	if code == "" {
		t.Fatalf("error envelope %v has no code", obj)
	}
	return code, msg
}

func TestSeedsEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/seeds?k=3")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	seeds := body["seeds"].([]any)
	if len(seeds) != 3 {
		t.Fatalf("got %d seeds, want 3", len(seeds))
	}
	if body["objective"].(float64) <= 0 {
		t.Fatalf("objective %v, want > 0", body["objective"])
	}
	cov := body["coverage"].(float64)
	if cov <= 0 || cov > 1 {
		t.Fatalf("coverage %v outside (0,1]", cov)
	}
}

func TestSeedsWithoutStore(t *testing.T) {
	s := newTestServer(t, func(c *Config) { c.Spheres = nil })
	rec, _ := do(t, s, "/v1/seeds?k=3")
	if rec.Code != http.StatusConflict {
		t.Fatalf("status %d, want 409", rec.Code)
	}
}

func TestSpreadIndexVsMC(t *testing.T) {
	s := newTestServer(t, nil)
	rec, viaIndex := do(t, s, "/v1/spread?seeds=0,10")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	rec, viaMC := do(t, s, "/v1/spread?seeds=0,10&method=mc&trials=400")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	a, b := viaIndex["spread"].(float64), viaMC["spread"].(float64)
	if a < 2 || b < 2 {
		t.Fatalf("spreads %v / %v, want >= |seeds|", a, b)
	}
	// Both estimate the same expectation; they agree loosely.
	if diff := a - b; diff < -6 || diff > 6 {
		t.Fatalf("index spread %v vs mc spread %v: too far apart", a, b)
	}
}

func TestReliabilityEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/reliability?sources=0&threshold=0.7&samples=200")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	nodes := body["nodes"].([]any)
	if len(nodes) == 0 {
		t.Fatal("no nodes above threshold; the source itself is always reliable")
	}
	if body["samples"] != float64(200) {
		t.Fatalf("samples %v, want 200", body["samples"])
	}
}

func TestModesEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/modes/0?k=2")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	modes := body["modes"].([]any)
	if len(modes) == 0 || len(modes) > 2 {
		t.Fatalf("got %d modes, want 1..2", len(modes))
	}
	tp := body["takeoff_probability"].(float64)
	if tp < 0 || tp > 1 {
		t.Fatalf("takeoff probability %v outside [0,1]", tp)
	}
}

func TestInfoEndpoint(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/info")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if body["nodes"] != float64(40) {
		t.Fatalf("nodes %v, want 40", body["nodes"])
	}
	if body["worlds"] != float64(120) {
		t.Fatalf("worlds %v, want 120", body["worlds"])
	}
	wantFP := fmt.Sprintf("%x", s.x.Fingerprint())
	if body["index_fingerprint"] != wantFP {
		t.Fatalf("index fingerprint %v, want %s", body["index_fingerprint"], wantFP)
	}
	if body["spheres_loaded"] != true {
		t.Fatalf("spheres_loaded %v, want true", body["spheres_loaded"])
	}
}

func TestCacheHit(t *testing.T) {
	s := newTestServer(t, nil)
	rec1, _ := do(t, s, "/v1/sphere/7")
	if got := rec1.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("first request X-Cache %q, want miss", got)
	}
	rec2, _ := do(t, s, "/v1/sphere/7")
	if got := rec2.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("second request X-Cache %q, want hit", got)
	}
	if rec1.Body.String() != rec2.Body.String() {
		t.Fatalf("cache replayed a different body")
	}
	// Same query, different param order, same cache entry.
	_, _ = do(t, s, "/v1/stability?seeds=1,2&samples=10")
	rec3, _ := do(t, s, "/v1/stability?samples=10&seeds=1,2")
	if got := rec3.Header().Get("X-Cache"); got != "hit" {
		t.Fatalf("canonicalized query X-Cache %q, want hit", got)
	}
}

func TestPartial206OnTinyBudget(t *testing.T) {
	s := newTestServer(t, nil)
	// 200k trials cannot finish in 1ms; the Budget gate admits the first
	// trial and then truncates, so the response degrades to 206 instead of
	// failing.
	url := "/v1/spread?seeds=0&method=mc&trials=200000&budget=1ms"
	rec, body := do(t, s, url)
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body.String())
	}
	if body["partial"] != true {
		t.Fatalf("partial %v, want true", body["partial"])
	}
	achieved := body["achieved"].(float64)
	if achieved < 1 || achieved >= 200000 {
		t.Fatalf("achieved %v, want in [1, 200000)", achieved)
	}
	if body["requested"] != float64(200000) {
		t.Fatalf("requested %v, want 200000", body["requested"])
	}
	bound := body["error_bound"].(float64)
	if bound <= 0 {
		t.Fatalf("error_bound %v, want > 0", bound)
	}
	if body["spread"].(float64) < 1 {
		t.Fatalf("partial spread %v, want >= 1", body["spread"])
	}
	// Partial responses must not be cached: a patient client would get
	// replayed degraded data.
	rec2, _ := do(t, s, url)
	if got := rec2.Header().Get("X-Cache"); got != "miss" {
		t.Fatalf("partial response was cached (X-Cache %q)", got)
	}
}

func TestStabilityPartial206(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/v1/stability?seeds=0&samples=500000&budget=1ms")
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body.String())
	}
	if body["achieved"].(float64) < 1 {
		t.Fatalf("achieved %v, want >= 1", body["achieved"])
	}
	bound := body["error_bound"].(float64)
	if bound <= 0 || bound > 1 {
		t.Fatalf("error_bound %v, want in (0,1]", bound)
	}
}

func TestOverload429(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = -1 // no queue: second concurrent request is shed
	})
	s.env.Cache = daemon.NewCache(-1, nil, "server")
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{
		Kind: fault.KindDelay, Delay: 500 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}

	slow := make(chan int, 1)
	go func() {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sphere/1?source=compute&samples=0", nil))
		slow <- rec.Code
	}()
	// Give the slow request time to occupy the only compute slot.
	time.Sleep(100 * time.Millisecond)
	rec, body := do(t, s, "/v1/sphere/2?source=compute&samples=0")
	if rec.Code != http.StatusTooManyRequests {
		t.Fatalf("status %d, want 429: %s", rec.Code, rec.Body.String())
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("429 without Retry-After")
	}
	code, msg := envelope(t, body)
	if code != api.CodeOverloaded {
		t.Fatalf("error code %q, want %q", code, api.CodeOverloaded)
	}
	if !strings.Contains(msg, "overload") {
		t.Fatalf("error %v, want overload mention", msg)
	}
	if !api.RetryableCode(code) {
		t.Fatal("overloaded must be a retryable code")
	}
	if code := <-slow; code != 200 {
		t.Fatalf("slow request status %d, want 200", code)
	}
}

func TestSingleflightSharesResult(t *testing.T) {
	s := newTestServer(t, func(c *Config) {
		c.MaxInflight = 1
		c.MaxQueue = -1
	})
	fault.SetActive(true)
	defer fault.SetActive(false)
	// Delay every compute: identical concurrent requests must collapse onto
	// one leader rather than each needing (and fighting over) the one slot.
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{
		Kind: fault.KindDelay, Delay: 200 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}
	const clients = 8
	codes := make(chan int, clients)
	for i := 0; i < clients; i++ {
		go func() {
			rec := httptest.NewRecorder()
			s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sphere/9?source=compute&samples=0", nil))
			codes <- rec.Code
		}()
	}
	for i := 0; i < clients; i++ {
		if code := <-codes; code != 200 {
			t.Fatalf("client got %d, want 200 (singleflight should absorb concurrency)", code)
		}
	}
	if hits := fault.Hits(fault.ServerCompute); hits >= clients {
		t.Fatalf("%d computes for %d identical requests, want fewer", hits, clients)
	}
}

// TestLoadSmoke64Clients is the acceptance load test: 64 concurrent clients
// hammering /v1/sphere with zero errors.
func TestLoadSmoke64Clients(t *testing.T) {
	s := newTestServer(t, nil)
	ts := httptest.NewServer(s.Handler())
	defer ts.Close()

	const clients = 64
	const perClient = 4
	errc := make(chan error, clients)
	var wg sync.WaitGroup
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for r := 0; r < perClient; r++ {
				node := (c*perClient + r) % 40
				resp, err := http.Get(fmt.Sprintf("%s/v1/sphere/%d", ts.URL, node))
				if err != nil {
					errc <- err
					return
				}
				b, _ := io.ReadAll(resp.Body)
				resp.Body.Close()
				if resp.StatusCode != 200 {
					errc <- fmt.Errorf("client %d: status %d: %s", c, resp.StatusCode, b)
					return
				}
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestGracefulDrain drives the drain the way the daemons run it: the server
// behind the one daemon listener, its drain flag flipped before the listener
// shuts down.
func TestGracefulDrain(t *testing.T) {
	s := newTestServer(t, nil)
	gate := daemon.NewGate()
	gate.Ready(s.Handler())
	addr, err := gate.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{
		Kind: fault.KindDelay, Delay: 300 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}

	slow := make(chan int, 1)
	go func() {
		resp, err := http.Get("http://" + addr + "/v1/sphere/4?source=compute&samples=0")
		if err != nil {
			slow <- -1
			return
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		slow <- resp.StatusCode
	}()
	time.Sleep(100 * time.Millisecond) // the slow request is now in-flight

	done := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		s.Drain()
		done <- gate.Shutdown(ctx)
	}()

	if code := <-slow; code != 200 {
		t.Fatalf("in-flight request during drain got %d, want 200", code)
	}
	if err := <-done; err != nil {
		t.Fatalf("Shutdown: %v", err)
	}
	// The listener is closed; new connections must fail.
	if _, err := http.Get("http://" + addr + "/healthz"); err == nil {
		t.Fatal("server still accepting connections after Shutdown")
	}
	// And the handler itself (were it still mounted elsewhere) refuses work
	// with a retryable "draining" code.
	rec, body := do(t, s, "/v1/sphere/1")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drained handler status %d, want 503", rec.Code)
	}
	if code, _ := envelope(t, body); code != api.CodeDraining {
		t.Fatalf("drained handler code %q, want %q", code, api.CodeDraining)
	}
	// Liveness stays green while draining — restarting a draining process
	// would abort the drain; readiness is what flips.
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("drained healthz status %d, want 200 (liveness)", rec.Code)
	}
	rec, body = do(t, s, "/readyz")
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("drained readyz status %d, want 503", rec.Code)
	}
	if body["ready"] != false || body["reason"] != "draining" {
		t.Fatalf("drained readyz body %v, want ready=false reason=draining", body)
	}
}

func TestReadyzSurfacesFingerprints(t *testing.T) {
	s := newTestServer(t, nil)
	rec, body := do(t, s, "/readyz")
	if rec.Code != http.StatusOK {
		t.Fatalf("readyz status %d: %s", rec.Code, rec.Body.String())
	}
	if body["ready"] != true {
		t.Fatalf("ready %v, want true", body["ready"])
	}
	if body["index_fingerprint"] != fmt.Sprintf("%016x", s.x.Fingerprint()) {
		t.Fatalf("index fingerprint %v, want %016x", body["index_fingerprint"], s.x.Fingerprint())
	}
	if body["graph_fingerprint"] != fmt.Sprintf("%016x", s.x.GraphFingerprint()) {
		t.Fatalf("graph fingerprint %v, want %016x", body["graph_fingerprint"], s.x.GraphFingerprint())
	}
}

// TestGateLoadingToReady covers the startup window: the Gate answers
// liveness 200 / readiness 503 "loading" before artifacts load, then serves
// the real handler after Ready.
func TestGateLoadingToReady(t *testing.T) {
	g := daemon.NewGate()
	rec := httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("loading healthz status %d, want 200", rec.Code)
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("loading readyz status %d, want 503", rec.Code)
	}
	var ready api.Ready
	if err := json.Unmarshal(rec.Body.Bytes(), &ready); err != nil || ready.Ready || ready.Reason != "loading" {
		t.Fatalf("loading readyz body %s (err %v), want ready=false reason=loading", rec.Body.String(), err)
	}
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sphere/1", nil))
	if rec.Code != http.StatusServiceUnavailable {
		t.Fatalf("loading query status %d, want 503", rec.Code)
	}
	var env api.ErrorEnvelope
	if err := json.Unmarshal(rec.Body.Bytes(), &env); err != nil || env.Error.Code != api.CodeLoading {
		t.Fatalf("loading query body %s (err %v), want code %q", rec.Body.String(), err, api.CodeLoading)
	}
	if !api.RetryableCode(env.Error.Code) {
		t.Fatal("loading must be a retryable code")
	}

	s := newTestServer(t, nil)
	g.Ready(s.Handler())
	rec = httptest.NewRecorder()
	g.ServeHTTP(rec, httptest.NewRequest("GET", "/readyz", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("ready readyz status %d, want 200", rec.Code)
	}
}

func TestHealthzAndMetrics(t *testing.T) {
	s := newTestServer(t, nil)
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/healthz", nil))
	if rec.Code != 200 {
		t.Fatalf("healthz status %d", rec.Code)
	}
	do(t, s, "/v1/sphere/1")
	rec = httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/metrics", nil))
	if rec.Code != 200 {
		t.Fatalf("metrics status %d", rec.Code)
	}
	if !strings.Contains(rec.Body.String(), "soi_server_requests_total") {
		t.Fatalf("metrics output missing server counters:\n%s", rec.Body.String())
	}
}

func TestNewRejectsMismatchedArtifacts(t *testing.T) {
	f := sharedFixture(t)
	// Sphere store of the wrong cardinality.
	_, err := New(Config{Index: f.x, Spheres: f.spheres[:5]})
	if err == nil || !strings.Contains(err.Error(), "sphere store") {
		t.Fatalf("err %v, want sphere store mismatch", err)
	}
	// The index is the one required artifact; it carries its graph, whose
	// pairing the index load checks (index.TestReadRefusesOtherGraph).
	if _, err := New(Config{}); err == nil {
		t.Fatal("New without Index succeeded")
	}
}

// TestTelemetryReportBounded: the process-lifetime registry must not grow
// with the number of requests served. /metrics renders the whole registry
// on every scrape, so a per-request entry there (seed selection and
// Monte-Carlo spread once left a span each) is a leak.
func TestTelemetryReportBounded(t *testing.T) {
	tel := telemetry.New()
	sk, err := sketch.Build(telemetry.NewContext(context.Background(), tel), sharedFixture(t).x, sketch.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) {
		c.Telemetry = tel
		c.Sketch = sk
	})
	s.env.Cache = daemon.NewCache(-1, nil, "server")
	served := 0
	reportAfter := func(n int) (telemetry.Report, int) {
		for ; served < n; served++ {
			for _, url := range []string{"/v1/seeds?k=3", "/v1/seeds?k=3&estimator=sketch", "/v1/spread?seeds=0&method=mc&trials=20"} {
				if rec, _ := do(t, s, url); rec.Code != 200 {
					t.Fatalf("GET %s: status %d: %s", url, rec.Code, rec.Body.String())
				}
			}
		}
		rep := tel.Report()
		b, err := rep.JSON()
		if err != nil {
			t.Fatal(err)
		}
		return rep, len(b)
	}
	small, smallSize := reportAfter(100)
	large, largeSize := reportAfter(1000)
	if len(small.Spans) != len(large.Spans) {
		t.Fatalf("report spans grew from %d to %d with 10x the requests", len(small.Spans), len(large.Spans))
	}
	// Counter and histogram values gain a digit or two between the two
	// reads; a per-request entry would add tens of kilobytes.
	if largeSize > smallSize+1024 {
		t.Fatalf("report grew from %d to %d bytes with 10x the requests", smallSize, largeSize)
	}
}

// TestMCSpreadMetersIntoServerRegistry: the request context carries the
// server's registry, so the Monte-Carlo estimator behind /v1/spread counts
// its trials there without being handed the registry.
func TestMCSpreadMetersIntoServerRegistry(t *testing.T) {
	s := newTestServer(t, nil)
	if rec, _ := do(t, s, "/v1/spread?seeds=0&method=mc&trials=40"); rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if n := s.cfg.Telemetry.Counter("cascade.trials").Value(); n != 40 {
		t.Fatalf("cascade.trials = %d, want the request's 40 trials", n)
	}
}

// TestCacheKeyIgnoresBudget: a complete 200 does not depend on the budget,
// so a repeat under another budget is a cache hit with identical bytes.
func TestCacheKeyIgnoresBudget(t *testing.T) {
	s := newTestServer(t, nil)
	first, _ := do(t, s, "/v1/stability?seeds=0&samples=40&budget=20s")
	second, _ := do(t, s, "/v1/stability?seeds=0&samples=40&budget=19s")
	if first.Code != http.StatusOK || first.Header().Get("X-Cache") != "miss" {
		t.Fatalf("first answer %d X-Cache %q, want 200 miss", first.Code, first.Header().Get("X-Cache"))
	}
	if second.Code != http.StatusOK || second.Header().Get("X-Cache") != "hit" {
		t.Fatalf("repeat under another budget %d X-Cache %q, want 200 hit", second.Code, second.Header().Get("X-Cache"))
	}
	if !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) {
		t.Fatalf("hit replayed %q, first answer was %q", second.Body, first.Body)
	}
}

// TestCacheLeaderCancel: a cached key's flight leader computes detached from
// its client, so when that client hangs up mid-compute, a follower sharing
// the flight still gets the complete 200 rather than a 503 "canceled".
func TestCacheLeaderCancel(t *testing.T) {
	s := newTestServer(t, nil)
	tel := s.cfg.Telemetry
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{
		Kind: fault.KindDelay, Delay: 300 * time.Millisecond, Times: 1,
	}); err != nil {
		t.Fatal(err)
	}
	const url = "/v1/stability?seeds=0&samples=40"
	serve := func(ctx context.Context, out chan<- *httptest.ResponseRecorder) {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil).WithContext(ctx))
		out <- rec
	}
	waitFor := func(what string, cond func() bool) {
		t.Helper()
		for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
			if time.Now().After(deadline) {
				t.Fatalf("timed out waiting for %s", what)
			}
		}
	}

	ctx, hangUp := context.WithCancel(context.Background())
	defer hangUp()
	leader, follower := make(chan *httptest.ResponseRecorder, 1), make(chan *httptest.ResponseRecorder, 1)
	go serve(ctx, leader)
	waitFor("the leader to hold a compute slot", func() bool { return tel.Gauge("server.inflight").Value() == 1 })
	go serve(context.Background(), follower)
	waitFor("the follower to join the flight", func() bool { return tel.Counter("server.singleflight.shared").Value() == 1 })
	hangUp()

	rec := <-follower
	var body api.Stability
	if err := json.Unmarshal(rec.Body.Bytes(), &body); rec.Code != http.StatusOK || err != nil || body.Degraded {
		t.Fatalf("follower got %d %s, want the complete 200", rec.Code, rec.Body)
	}
	<-leader
}
