package router

import (
	"encoding/json"
	"math"
	"net"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/bound"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/statcheck"
	"soi/internal/telemetry"
)

// killableShard serves a shard handler on a fixed port and can be killed
// abruptly (listener and live connections closed, like SIGKILL) and
// restarted on the same address.
type killableShard struct {
	addr string
	h    http.Handler
	srv  *http.Server
}

func startKillable(t *testing.T, h http.Handler) *killableShard {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	k := &killableShard{addr: ln.Addr().String(), h: h}
	k.serve(ln)
	return k
}

func (k *killableShard) serve(ln net.Listener) {
	srv := &http.Server{Handler: k.h}
	k.srv = srv
	go srv.Serve(ln)
}

func (k *killableShard) kill() { k.srv.Close() }

func (k *killableShard) restart(t *testing.T) {
	t.Helper()
	ln, err := net.Listen("tcp", k.addr)
	if err != nil {
		t.Fatal(err)
	}
	k.serve(ln)
}

// TestChaosGauntletKillRestartRecover is the acceptance gauntlet: one of two
// shards is killed while a scatter is inside its compute (pinned there by an
// armed failpoint delay), the gateway answers 206 with an error bound that
// still contains the exact-oracle answer, the dead replica's breaker opens,
// and after a restart the breaker closes and full-quality answers resume.
// The whole exercise must not leak goroutines.
func TestChaosGauntletKillRestartRecover(t *testing.T) {
	before := runtime.NumGoroutine()
	fx := routerFix(t)
	exact, err := oracle.ExpectedSpread(fx.g, []graph.NodeID{4, 9})
	if err != nil {
		t.Fatal(err)
	}

	shards := make([]*killableShard, fx.part.K)
	groups := make([][]string, fx.part.K)
	for s := range shards {
		shards[s] = startKillable(t, newShardServer(t, fx, s).Handler())
		groups[s] = []string{"http://" + shards[s].addr}
	}
	rt, err := New(Config{
		Topology:        fx.topo,
		Replicas:        groups,
		MaxRetries:      1,
		RetryBase:       time.Millisecond,
		HedgeDelay:      -1,
		ProbeInterval:   -1,
		BreakerFailures: 2,
		BreakerCooldown: 150 * time.Millisecond,
		Telemetry:       telemetry.New(),
	})
	if err != nil {
		t.Fatal(err)
	}

	// Pin every scatter leg inside the shard compute so the kill lands
	// mid-query deterministically.
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{
		Kind: fault.KindDelay, Delay: 150 * time.Millisecond,
	}); err != nil {
		t.Fatal(err)
	}

	victim := rt.owner[9]
	type answer struct {
		code int
		body map[string]any
	}
	done := make(chan answer, 1)
	go func() {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=4,9&budget=2s", nil))
		var body map[string]any
		if rec.Body.Len() > 0 {
			_ = json.Unmarshal(rec.Body.Bytes(), &body)
		}
		done <- answer{rec.Code, body}
	}()
	time.Sleep(50 * time.Millisecond) // both legs are inside the armed delay
	shards[victim].kill()

	ans := <-done
	if ans.code != http.StatusPartialContent {
		t.Fatalf("status %d after mid-scatter kill, want 206: %v", ans.code, ans.body)
	}
	if ans.body["partial"] != true || int(bodyFloat(t, ans.body, "shards_ok")) != 1 {
		t.Fatalf("degrade info wrong after kill: %v", ans.body)
	}
	failed := bodyNodes(t, ans.body, "failed_shards")
	if len(failed) != 1 || int(failed[0]) != victim {
		t.Fatalf("failed_shards %v, want [%d]", failed, victim)
	}
	// The bound must bracket the exact answer: the live shard's estimate
	// carries sampling error, the dead shard anything up to its node count.
	served := bodyFloat(t, ans.body, "error_bound")
	slack := bound.Hoeffding(rcEll, statcheck.DefaultDelta).Scale(5).Eps
	if got := bodyFloat(t, ans.body, "spread"); math.Abs(got-exact) > served+slack {
		t.Errorf("degraded spread %v outside exact %v ± (bound %v + slack %v)", got, exact, served, slack)
	}

	// The kill plus the in-request retry are 2 consecutive failures: the
	// victim replica's breaker is open, and single-shard queries for its
	// nodes fail fast with a retryable error instead of hanging.
	if st := rt.shards[victim][0].breaker.State(); st != BreakerOpen {
		t.Fatalf("victim breaker %v after kill, want open", st)
	}
	code, body := gwDo(t, rt, "/v1/sphere/9")
	if code != http.StatusServiceUnavailable {
		t.Fatalf("sphere on dead shard: status %d, want 503: %v", code, body)
	}
	if e, ok := body["error"].(map[string]any); !ok || e["code"] != api.CodeShardUnavailable {
		t.Fatalf("sphere on dead shard: envelope %v, want code %q", body, api.CodeShardUnavailable)
	}

	// Recovery: restart the shard on the same address, wait out the breaker
	// cooldown, and the half-open probe closes the circuit again.
	fault.Disable(fault.ServerCompute)
	shards[victim].restart(t)
	time.Sleep(200 * time.Millisecond)

	code, body = gwDo(t, rt, "/v1/sphere/9")
	if code != http.StatusOK {
		t.Fatalf("sphere after restart: status %d: %v", code, body)
	}
	if st := rt.shards[victim][0].breaker.State(); st != BreakerClosed {
		t.Fatalf("victim breaker %v after successful probe, want closed", st)
	}
	code, body = gwDo(t, rt, "/v1/spread?seeds=4,9&budget=2s")
	if code != http.StatusOK || int(bodyFloat(t, body, "shards_ok")) != 2 {
		t.Fatalf("spread after recovery: status %d: %v", code, body)
	}
	statcheck.Close(t, "recovered spread", bodyFloat(t, body, "spread"), exact,
		bound.Hoeffding(rcEll, statcheck.DefaultDelta).Scale(float64(fx.g.NumNodes())))

	// Teardown everything and verify nothing leaked.
	for _, k := range shards {
		k.kill()
	}
	rt.Close()
	if tr, ok := rt.client.Transport.(*http.Transport); ok {
		tr.CloseIdleConnections()
	}
	deadline := time.Now().Add(3 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutine leak: before=%d after=%d", before, runtime.NumGoroutine())
}
