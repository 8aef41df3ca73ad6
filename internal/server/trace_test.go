package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soi/internal/api"
	"soi/internal/trace"
)

// tracedServer is a test server with tracing enabled at full sampling, so
// even boring 200s are retained for inspection.
func tracedServer(t testing.TB, reqLog *trace.RequestLog) (*Server, *trace.Tracer) {
	t.Helper()
	tr := trace.New(trace.Options{Service: "soid", SampleRate: 1})
	s := newTestServer(t, func(c *Config) {
		c.Tracer = tr
		c.RequestLog = reqLog
	})
	return s, tr
}

func getTrace(t *testing.T, s *Server, id string) trace.TraceJSON {
	t.Helper()
	rec := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+id, nil))
	if rec.Code != 200 {
		t.Fatalf("/debug/traces/%s status %d: %s", id, rec.Code, rec.Body.String())
	}
	var tj trace.TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tj); err != nil {
		t.Fatalf("trace decode: %v", err)
	}
	return tj
}

// TestRequestIDAndSpanTree drives one computed sphere query and checks the
// response's X-SOI-Request-ID resolves to a retained soi.trace/v1 tree with
// the serving-pipeline child spans.
func TestRequestIDAndSpanTree(t *testing.T) {
	var logBuf bytes.Buffer
	s, _ := tracedServer(t, trace.NewRequestLog(&logBuf))

	rec, _ := do(t, s, "/v1/sphere/13?source=compute&samples=20")
	if rec.Code != 200 {
		t.Fatalf("status %d: %s", rec.Code, rec.Body.String())
	}
	id := rec.Header().Get(trace.RequestIDHeader)
	if len(id) != 32 {
		t.Fatalf("X-SOI-Request-ID = %q, want 32-hex trace id", id)
	}

	tj := getTrace(t, s, id)
	if tj.Schema != trace.Schema {
		t.Fatalf("schema = %q, want %q", tj.Schema, trace.Schema)
	}
	if tj.TraceID != id {
		t.Fatalf("trace id %q != request id %q", tj.TraceID, id)
	}
	if len(tj.Spans) != 1 {
		t.Fatalf("want one root span, got %d", len(tj.Spans))
	}
	root := tj.Spans[0]
	if root.Name != "soid.sphere" || root.HTTPStatus != 200 {
		t.Fatalf("root = %s status %d", root.Name, root.HTTPStatus)
	}
	names := map[string]bool{}
	var walk func(sp trace.SpanJSON)
	walk = func(sp trace.SpanJSON) {
		names[sp.Name] = true
		for _, c := range sp.Children {
			walk(c)
		}
	}
	walk(root)
	for _, want := range []string{"cache.lookup", "singleflight.do", "admission.wait", "compute", "sphere.compute", "stability.estimate"} {
		if !names[want] {
			t.Errorf("span %q missing from tree: %v", want, names)
		}
	}

	// The request log carries the same trace id.
	var logRec trace.RequestRecord
	if err := json.Unmarshal(logBuf.Bytes(), &logRec); err != nil {
		t.Fatalf("request log decode: %v (%q)", err, logBuf.String())
	}
	if logRec.TraceID != id || logRec.Endpoint != "sphere" || logRec.Status != 200 || logRec.Cache != "miss" {
		t.Fatalf("request log record = %+v", logRec)
	}
	if logRec.Service != "soid" || logRec.DurationMS <= 0 {
		t.Fatalf("request log record = %+v", logRec)
	}
}

// TestTraceLibrarySpans: an endpoint that wraps one library call carries
// that call's own span exactly once, with the request parameter as its
// attribute, and no handler span doubling it.
func TestTraceLibrarySpans(t *testing.T) {
	s, _ := tracedServer(t, nil)
	for _, tc := range []struct {
		url, span, attr string
		want            float64
	}{
		{"/v1/seeds?k=3", "infmax.tc.greedy", "k", 3},
		{"/v1/spread?seeds=0&method=mc&trials=40", "cascade.expected_spread", "trials", 40},
	} {
		rec, _ := do(t, s, tc.url)
		if rec.Code != 200 {
			t.Fatalf("GET %s: status %d: %s", tc.url, rec.Code, rec.Body.String())
		}
		var found []trace.SpanJSON
		var walk func(sp trace.SpanJSON)
		walk = func(sp trace.SpanJSON) {
			switch sp.Name {
			case tc.span:
				found = append(found, sp)
			case "seeds.greedy", "spread.mc":
				t.Errorf("GET %s: handler span %q doubles the library span", tc.url, sp.Name)
			}
			for _, c := range sp.Children {
				walk(c)
			}
		}
		for _, root := range getTrace(t, s, rec.Header().Get(trace.RequestIDHeader)).Spans {
			walk(root)
		}
		if len(found) != 1 {
			t.Fatalf("GET %s: %d %s spans, want 1", tc.url, len(found), tc.span)
		}
		if got := found[0].Attrs[tc.attr]; got != tc.want {
			t.Fatalf("GET %s: %s attr %s = %v, want %v", tc.url, tc.span, tc.attr, got, tc.want)
		}
	}
}

// TestTraceDegradedEvent forces a budget-truncated 206 and checks the trace
// records the degradation event with its accounting, and that the trace is
// retained as "partial" even at sample rate 0.
func TestTraceDegradedEvent(t *testing.T) {
	var logBuf bytes.Buffer
	tr := trace.New(trace.Options{Service: "soid", SampleRate: -1})
	s := newTestServer(t, func(c *Config) {
		c.Tracer = tr
		c.RequestLog = trace.NewRequestLog(&logBuf)
	})

	// A microscopic budget truncates sampling: 206 with achieved < requested.
	rec, body := do(t, s, "/v1/stability?seeds=0&samples=4000&budget=1ns")
	if rec.Code != 206 {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body.String())
	}
	if body["partial"] != true {
		t.Fatalf("body not partial: %v", body)
	}
	id := rec.Header().Get(trace.RequestIDHeader)
	tj := getTrace(t, s, id)
	if tj.Retained != "partial" {
		t.Fatalf("retained = %q, want partial", tj.Retained)
	}
	root := tj.Spans[0]
	var ev *trace.EventJSON
	for i := range root.Events {
		if root.Events[i].Name == "degraded" {
			ev = &root.Events[i]
		}
	}
	if ev == nil {
		t.Fatalf("no degraded event on root: %+v", root.Events)
	}
	req := ev.Attrs["requested"].(float64)
	ach := ev.Attrs["achieved"].(float64)
	if req != 4000 || ach >= req {
		t.Fatalf("degraded event attrs = %+v", ev.Attrs)
	}
	if ev.Attrs["error_bound"].(float64) <= 0 {
		t.Fatalf("degraded event bound = %v", ev.Attrs["error_bound"])
	}

	// The log line carries the degradation accounting.
	var logRec trace.RequestRecord
	if err := json.Unmarshal(logBuf.Bytes(), &logRec); err != nil {
		t.Fatal(err)
	}
	if !logRec.Partial || logRec.Requested != 4000 || logRec.Achieved >= 4000 || logRec.ErrorBound <= 0 {
		t.Fatalf("log record = %+v", logRec)
	}
}

// TestTraceCacheHit checks a cache hit produces a trace whose cache.lookup
// span records the hit, and a log line with cache=hit.
func TestTraceCacheHit(t *testing.T) {
	var logBuf bytes.Buffer
	s, _ := tracedServer(t, trace.NewRequestLog(&logBuf))
	url := "/v1/sphere/7?source=compute&samples=10"
	if rec, _ := do(t, s, url); rec.Code != 200 {
		t.Fatalf("warmup status %d", rec.Code)
	}
	rec, _ := do(t, s, url)
	if rec.Header().Get("X-Cache") != "hit" {
		t.Fatal("second request not a cache hit")
	}
	id := rec.Header().Get(trace.RequestIDHeader)
	tj := getTrace(t, s, id)
	root := tj.Spans[0]
	if len(root.Children) != 1 || root.Children[0].Name != "cache.lookup" {
		t.Fatalf("cache-hit tree = %+v", root.Children)
	}
	if root.Children[0].Attrs["hit"] != true {
		t.Fatalf("cache.lookup attrs = %+v", root.Children[0].Attrs)
	}
	lines := strings.Split(strings.TrimSpace(logBuf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("log lines = %d, want 2", len(lines))
	}
	var hitRec trace.RequestRecord
	if err := json.Unmarshal([]byte(lines[1]), &hitRec); err != nil {
		t.Fatal(err)
	}
	if hitRec.Cache != "hit" {
		t.Fatalf("hit record = %+v", hitRec)
	}
}

// TestTraceErrorRetained checks 4xx requests are retained by the error rule
// and the root span carries the error code.
func TestTraceErrorRetained(t *testing.T) {
	tr := trace.New(trace.Options{Service: "soid", SampleRate: -1})
	s := newTestServer(t, func(c *Config) { c.Tracer = tr })
	rec, _ := do(t, s, "/v1/sphere/99999")
	if rec.Code != 404 {
		t.Fatalf("status %d, want 404", rec.Code)
	}
	id := rec.Header().Get(trace.RequestIDHeader)
	tj := getTrace(t, s, id)
	if tj.Retained != "error" {
		t.Fatalf("retained = %q, want error", tj.Retained)
	}
	if tj.Spans[0].Error != api.CodeNotFound || tj.Spans[0].HTTPStatus != 404 {
		t.Fatalf("root = %+v", tj.Spans[0])
	}
}

// TestExemplarOnLatencyHistogram checks the per-endpoint latency histogram
// carries the trace id of an observed request as an exemplar.
func TestExemplarOnLatencyHistogram(t *testing.T) {
	s, _ := tracedServer(t, nil)
	rec, _ := do(t, s, "/v1/sphere/3?source=compute&samples=5")
	id := rec.Header().Get(trace.RequestIDHeader)
	snap := s.cfg.Telemetry.Histogram("server.latency_ns.sphere").Snapshot()
	if snap.ExemplarLast == nil || snap.ExemplarLast.TraceID != id {
		t.Fatalf("latency exemplar = %+v, want trace %s", snap.ExemplarLast, id)
	}
	if snap.ExemplarMax == nil {
		t.Fatal("max exemplar missing")
	}
}

// TestTracingDisabledByDefault checks a tracer-less server neither emits the
// request-id header nor serves /debug/traces.
func TestTracingDisabledByDefault(t *testing.T) {
	s := newTestServer(t, nil)
	rec, _ := do(t, s, "/v1/info")
	if rec.Code != 200 {
		t.Fatalf("status %d", rec.Code)
	}
	if got := rec.Header().Get(trace.RequestIDHeader); got != "" {
		t.Fatalf("request id on untraced server: %q", got)
	}
	rec2 := httptest.NewRecorder()
	s.Handler().ServeHTTP(rec2, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec2.Code != http.StatusNotFound {
		t.Fatalf("/debug/traces status %d, want 404", rec2.Code)
	}
}

// --- Satellite: Retry-After on every retryable 503 -----------------------

// TestRetryAfterOnDrain503 checks the draining 503 carries both the
// Retry-After header and the retry_after_ms hint.
func TestRetryAfterOnDrain503(t *testing.T) {
	s := newTestServer(t, nil)
	s.Drain()
	rec, body := do(t, s, "/v1/sphere/1")
	if rec.Code != 503 {
		t.Fatalf("status %d, want 503", rec.Code)
	}
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("drain 503 missing Retry-After header")
	}
	errObj := body["error"].(map[string]any)
	if errObj["code"] != api.CodeDraining || errObj["retry_after_ms"].(float64) <= 0 {
		t.Fatalf("drain envelope = %v", errObj)
	}
}
