package router

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"soi/internal/api"
	"soi/internal/server"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// newTracedShardServer is newShardServer plus a shared tracer: gateway and
// shards sharing one Tracer assemble the distributed trace into a single
// span tree, which is what the acceptance test below inspects.
func newTracedShardServer(t *testing.T, fx *routerFixture, s int, tr *trace.Tracer) *server.Server {
	t.Helper()
	origIDs := make([]int64, len(fx.members[s]))
	for i, v := range fx.members[s] {
		origIDs[i] = int64(v)
	}
	srv, err := server.New(server.Config{
		OrigIDs:     origIDs,
		Index:       fx.idx[s],
		Spheres:     fx.sph[s],
		Telemetry:   telemetry.New(),
		Tracer:      tr,
		CostSamples: rcEll,
		Trials:      rcEll,
		Seed:        92 + uint64(s),
	})
	if err != nil {
		t.Fatal(err)
	}
	return srv
}

func findChild(sp trace.SpanJSON, name string) *trace.SpanJSON {
	for i := range sp.Children {
		if sp.Children[i].Name == name {
			return &sp.Children[i]
		}
	}
	return nil
}

func hasEvent(sp trace.SpanJSON, name string) bool {
	for _, ev := range sp.Events {
		if ev.Name == name {
			return true
		}
	}
	return false
}

// TestGatewayTraceLinksShardLegs is the tracing acceptance test: one request
// scatters through soigw to two real soid shards over HTTP, with a forced
// retry on shard 0's leg and a forced hedge on shard 1's. The single
// resulting trace must link gateway root → both leg spans → the shard
// servers' spans (parented across the wire via traceparent), carry the retry
// and hedge events, match the response's X-SOI-Request-ID, and be served as
// valid soi.trace/v1 JSON by /debug/traces/{id}.
func TestGatewayTraceLinksShardLegs(t *testing.T) {
	fx := routerFix(t)
	tracer := trace.New(trace.Options{Service: "soi", SampleRate: 1})
	var logBuf bytes.Buffer
	reqLog := trace.NewRequestLog(&logBuf)

	// Shard 0: the first attempt is refused with a retryable envelope, so the
	// leg must retry (same replica — the group has one) and then succeed.
	shard0 := newTracedShardServer(t, fx, 0, tracer)
	var calls0 atomic.Int64
	ts0 := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		if calls0.Add(1) == 1 {
			api.WriteError(w, &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeOverloaded, Msg: "induced overload", RetryAfter: time.Millisecond})
			return
		}
		shard0.Handler().ServeHTTP(w, req)
	}))
	t.Cleanup(ts0.Close)

	// Shard 1: the primary replica stalls far past the hedge delay, so the
	// hedged request to the alt replica answers and wins.
	shard1 := newTracedShardServer(t, fx, 1, tracer)
	alt := httptest.NewServer(shard1.Handler())
	t.Cleanup(alt.Close)
	primary := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		select {
		case <-time.After(30 * time.Second):
		case <-req.Context().Done():
		}
	}))
	t.Cleanup(primary.Close)

	rt, err := New(Config{
		Topology:      fx.topo,
		Replicas:      [][]string{{ts0.URL}, {primary.URL, alt.URL}},
		MaxRetries:    2,
		RetryBase:     time.Millisecond,
		HedgeDelay:    5 * time.Millisecond,
		ProbeInterval: -1,
		Telemetry:     telemetry.New(),
		Tracer:        tracer,
		RequestLog:    reqLog,
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

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=4,9&method=index", nil))
	if rec.Code != http.StatusOK {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	reqID := rec.Header().Get(trace.RequestIDHeader)
	if len(reqID) != 32 {
		t.Fatalf("X-SOI-Request-ID %q, want a 32-hex trace id", reqID)
	}
	if calls0.Load() != 2 {
		t.Fatalf("shard 0 saw %d calls, want 2 (503 then retried success)", calls0.Load())
	}
	if rt.mHedges.Value() != 1 || rt.mHedgeWins.Value() != 1 {
		t.Fatalf("hedges=%d hedge_wins=%d, want 1/1", rt.mHedges.Value(), rt.mHedgeWins.Value())
	}

	// The trace is served by the gateway's /debug/traces/{id}.
	trec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(trec, httptest.NewRequest("GET", "/debug/traces/"+reqID, nil))
	if trec.Code != http.StatusOK {
		t.Fatalf("/debug/traces/%s: status %d: %s", reqID, trec.Code, trec.Body.String())
	}
	var tj trace.TraceJSON
	if err := json.Unmarshal(trec.Body.Bytes(), &tj); err != nil {
		t.Fatalf("bad trace JSON: %v", err)
	}
	if tj.Schema != trace.Schema {
		t.Fatalf("schema %q, want %q", tj.Schema, trace.Schema)
	}
	if tj.TraceID != reqID {
		t.Fatalf("trace_id %q != X-SOI-Request-ID %q", tj.TraceID, reqID)
	}

	// One tree: the gateway root, with both shard legs as children.
	if len(tj.Spans) != 1 {
		t.Fatalf("trace has %d roots, want 1 (legs and shard spans must link under the gateway root): %s", len(tj.Spans), trec.Body.String())
	}
	root := tj.Spans[0]
	if root.Name != "soigw.spread" || root.RemoteParent {
		t.Fatalf("root span %q (remote_parent=%v), want local soigw.spread", root.Name, root.RemoteParent)
	}
	if root.HTTPStatus != http.StatusOK {
		t.Fatalf("root http_status %d, want 200", root.HTTPStatus)
	}

	legs := make(map[int]trace.SpanJSON)
	for _, c := range root.Children {
		if c.Name != "soigw.leg" {
			continue
		}
		shard, ok := c.Attrs["shard"].(float64)
		if !ok {
			t.Fatalf("leg span missing shard attr: %+v", c.Attrs)
		}
		legs[int(shard)] = c
	}
	if len(legs) != 2 {
		t.Fatalf("found legs for shards %v, want both 0 and 1", legs)
	}

	// Shard 0's leg recorded the retry; shard 1's the hedge and its win.
	if !hasEvent(legs[0], "retry") {
		t.Errorf("shard 0 leg missing retry event: %+v", legs[0].Events)
	}
	if !hasEvent(legs[1], "hedge") || !hasEvent(legs[1], "hedge_win") {
		t.Errorf("shard 1 leg missing hedge/hedge_win events: %+v", legs[1].Events)
	}

	// Each leg's child is the shard server's span, linked across the wire by
	// traceparent: its parent_span_id is the leg's span id.
	for s, leg := range legs {
		srvSpan := findChild(leg, "soid.spread")
		if srvSpan == nil {
			t.Fatalf("shard %d leg has no soid.spread child (traceparent not propagated?): %+v", s, leg.Children)
		}
		if srvSpan.ParentSpanID != leg.SpanID {
			t.Errorf("shard %d server span parent %q, want leg span %q", s, srvSpan.ParentSpanID, leg.SpanID)
		}
		if srvSpan.HTTPStatus != http.StatusOK {
			t.Errorf("shard %d server span http_status %d, want 200", s, srvSpan.HTTPStatus)
		}
	}

	// The gateway's request log line carries the same trace id and the
	// scatter fan-out accounting.
	var gwRec trace.RequestRecord
	found := false
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var r trace.RequestRecord
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			t.Fatalf("bad request-log line %q: %v", line, err)
		}
		if r.Service == "soigw" && r.Endpoint == "spread" {
			gwRec, found = r, true
		}
	}
	if !found {
		t.Fatalf("no soigw spread record in request log: %s", logBuf.String())
	}
	if gwRec.TraceID != reqID || gwRec.Status != http.StatusOK {
		t.Errorf("log record trace_id=%q status=%d, want %q/200", gwRec.TraceID, gwRec.Status, reqID)
	}
	if gwRec.ShardsOK != 2 || gwRec.ShardsTotal != 2 {
		t.Errorf("log record shards_ok=%d shards_total=%d, want 2/2", gwRec.ShardsOK, gwRec.ShardsTotal)
	}
}

// TestGatewayDegradedTraceRecordsDeadLeg: when a shard is unreachable the 206
// answer's trace shows the failed leg (error, no server child) and a
// "degraded" event on the root with the widened bound — the operator's view
// of why the answer is partial.
func TestGatewayDegradedTraceRecordsDeadLeg(t *testing.T) {
	fx := routerFix(t)
	tracer := trace.New(trace.Options{Service: "soigw", SampleRate: -1})
	var logBuf bytes.Buffer

	shard0 := newTracedShardServer(t, fx, 0, tracer)
	ts0 := httptest.NewServer(shard0.Handler())
	t.Cleanup(ts0.Close)
	dead := httptest.NewServer(http.NotFoundHandler())
	deadURL := dead.URL
	dead.Close()

	rt, err := New(Config{
		Topology:      fx.topo,
		Replicas:      [][]string{{ts0.URL}, {deadURL}},
		MaxRetries:    1,
		RetryBase:     time.Millisecond,
		HedgeDelay:    -1,
		ProbeInterval: -1,
		Telemetry:     telemetry.New(),
		Tracer:        tracer,
		RequestLog:    trace.NewRequestLog(&logBuf),
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(rt.Close)

	rec := httptest.NewRecorder()
	rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=4,9&method=index", nil))
	if rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d, want 206 with one dead shard: %s", rec.Code, rec.Body.String())
	}
	reqID := rec.Header().Get(trace.RequestIDHeader)

	// 206 answers are always retained (tail-based "partial"), even with
	// sampling disabled.
	tr := tracer.Get(mustTraceID(t, reqID))
	if tr == nil {
		t.Fatalf("206 trace %s not retained", reqID)
	}
	tj := tr.Snapshot("soigw")
	if tj.Retained != "error" && tj.Retained != "partial" {
		t.Fatalf("retained %q, want error or partial", tj.Retained)
	}
	root := tj.Spans[0]
	if !hasEvent(root, "degraded") {
		t.Errorf("root span missing degraded event: %+v", root.Events)
	}
	var deadLeg *trace.SpanJSON
	for i := range root.Children {
		c := &root.Children[i]
		// Attrs are int64 here: the snapshot came from Tracer.Get, not a
		// JSON round-trip.
		if c.Name == "soigw.leg" && c.Attrs["shard"] == int64(1) {
			deadLeg = c
		}
	}
	if deadLeg == nil {
		t.Fatalf("no leg span for the dead shard: %+v", root.Children)
	}
	if deadLeg.Error == "" {
		t.Errorf("dead leg has no error: %+v", deadLeg)
	}
	if findChild(*deadLeg, "soid.spread") != nil {
		t.Errorf("dead leg has a server child span; the shard never answered")
	}

	// The request log records the fan-out damage.
	var r trace.RequestRecord
	if err := json.Unmarshal([]byte(strings.TrimSpace(logBuf.String())), &r); err != nil {
		t.Fatalf("bad request-log line: %v", err)
	}
	if !r.Partial || r.ShardsOK != 1 || r.ShardsTotal != 2 ||
		len(r.FailedShards) != 1 || r.FailedShards[0] != 1 {
		t.Errorf("log record %+v, want partial with failed shard 1", r)
	}
}

func mustTraceID(t *testing.T, s string) trace.TraceID {
	t.Helper()
	id, ok := trace.ParseTraceID(s)
	if !ok {
		t.Fatalf("bad trace id %q", s)
	}
	return id
}

// TestGatewayTracingDisabledByDefault: a router with no tracer serves
// untraced requests (no request-id header) and 404s /debug/traces.
func TestGatewayTracingDisabledByDefault(t *testing.T) {
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		fmt.Fprint(w, `{"spread":1,"method":"index"}`)
	}))
	defer ts.Close()
	r := newTestRouter(t, nil, []string{ts.URL}, []string{ts.URL})

	rec := httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/spread?seeds=0", nil))
	if rec.Code != http.StatusOK && rec.Code != http.StatusPartialContent {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	if got := rec.Header().Get(trace.RequestIDHeader); got != "" {
		t.Fatalf("X-SOI-Request-ID %q on an untraced gateway, want none", got)
	}
	rec = httptest.NewRecorder()
	r.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("/debug/traces status %d without a tracer, want 404", rec.Code)
	}
}
