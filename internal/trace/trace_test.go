package trace

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"os"
	"strings"
	"sync"
	"testing"
	"time"
)

func newTestTracer(opts Options) *Tracer {
	if opts.Service == "" {
		opts.Service = "test"
	}
	if opts.SampleRate == 0 {
		opts.SampleRate = -1 // retention only by error/partial/slow unless the test opts in
	}
	return New(opts)
}

func TestTraceIDFormat(t *testing.T) {
	id := TraceID{Hi: 0x0102030405060708, Lo: 0x090a0b0c0d0e0f10}
	want := "0102030405060708090a0b0c0d0e0f10"
	if got := id.String(); got != want {
		t.Fatalf("TraceID.String() = %q, want %q", got, want)
	}
	back, ok := ParseTraceID(want)
	if !ok || back != id {
		t.Fatalf("ParseTraceID(%q) = %v, %v", want, back, ok)
	}
	if got := SpanID(0xdeadbeef).String(); got != "00000000deadbeef" {
		t.Fatalf("SpanID.String() = %q", got)
	}
}

func TestTraceparentRoundTrip(t *testing.T) {
	tid := TraceID{Hi: 1, Lo: 2}
	sid := SpanID(3)
	v := FormatTraceparent(tid, sid, true)
	want := "00-00000000000000010000000000000002-0000000000000003-01"
	if v != want {
		t.Fatalf("FormatTraceparent = %q, want %q", v, want)
	}
	link, ok := ParseTraceparent(v)
	if !ok {
		t.Fatalf("ParseTraceparent(%q) rejected", v)
	}
	if link.TraceID != tid || link.SpanID != sid || !link.Sampled {
		t.Fatalf("round trip mismatch: %+v", link)
	}
}

func TestTraceparentRejectsMalformed(t *testing.T) {
	bad := []string{
		"",
		"00",
		"00-short-0000000000000003-01",
		"00-00000000000000000000000000000000-0000000000000003-01",       // zero trace id
		"00-00000000000000010000000000000002-0000000000000000-01",       // zero span id
		"00-00000000000000010000000000000002-0000000000000003-0",        // short flags
		"ff-00000000000000010000000000000002-0000000000000003-01",       // forbidden version
		"zz-00000000000000010000000000000002-0000000000000003-01",       // non-hex version
		"00-00000000000000010000000000000002-0000000000000003-01-extra", // v00 with extra fields
	}
	for _, v := range bad {
		if _, ok := ParseTraceparent(v); ok {
			t.Errorf("ParseTraceparent(%q) accepted, want reject", v)
		}
	}
	// Future versions may carry extra fields.
	if _, ok := ParseTraceparent("42-00000000000000010000000000000002-0000000000000003-01-extra"); !ok {
		t.Errorf("future-version traceparent with extra field rejected")
	}
}

func TestNilTracerIsSafe(t *testing.T) {
	var tr *Tracer
	ctx, span := tr.StartSpan(context.Background(), "noop")
	if span != nil {
		t.Fatal("nil tracer returned non-nil span")
	}
	// Every span method must tolerate nil.
	span.SetAttrs(String("k", "v"))
	span.Event("e")
	span.SetHTTPStatus(200)
	span.SetError("x")
	span.End()
	if got := span.RequestID(); got != "" {
		t.Fatalf("nil span RequestID = %q", got)
	}
	if got := span.Traceparent(); got != "" {
		t.Fatalf("nil span Traceparent = %q", got)
	}
	if span.Trace() != nil {
		t.Fatal("nil span Trace is non-nil")
	}
	if _, child := StartChild(ctx, "child"); child != nil {
		t.Fatal("StartChild from spanless ctx returned non-nil span")
	}
	req := httptest.NewRequest("GET", "/x", nil)
	if _, s := tr.StartRequest(req, "r"); s != nil {
		t.Fatal("nil tracer StartRequest returned non-nil span")
	}
	if tr.Get(TraceID{Hi: 1}) != nil {
		t.Fatal("nil tracer Get returned non-nil")
	}
	// The disabled handler answers 404.
	rec := httptest.NewRecorder()
	tr.Handler("/debug/traces").ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("nil tracer handler status = %d, want 404", rec.Code)
	}
}

func TestRetentionKeepsErrors(t *testing.T) {
	tr := newTestTracer(Options{})
	_, root := tr.StartSpan(context.Background(), "req")
	root.SetHTTPStatus(500)
	root.End()
	if tr.Get(root.TraceID()) == nil {
		t.Fatal("500 trace was not retained")
	}

	_, root2 := tr.StartSpan(context.Background(), "req")
	root2.SetError("boom")
	root2.End()
	if tr.Get(root2.TraceID()) == nil {
		t.Fatal("errored trace was not retained")
	}
}

func TestRetentionKeepsPartials(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, root := tr.StartSpan(context.Background(), "req")
	_, child := StartChild(ctx, "compute")
	child.SetHTTPStatus(http.StatusPartialContent)
	child.End()
	root.SetHTTPStatus(http.StatusPartialContent)
	root.End()
	got := tr.Get(root.TraceID())
	if got == nil {
		t.Fatal("206 trace was not retained")
	}
	snap := got.Snapshot("test")
	if snap.Retained != "partial" {
		t.Fatalf("retained reason = %q, want partial", snap.Retained)
	}
}

func TestRetentionDropsBoring(t *testing.T) {
	tr := newTestTracer(Options{SlowThreshold: time.Hour})
	_, root := tr.StartSpan(context.Background(), "req")
	root.SetHTTPStatus(200)
	root.End()
	if tr.Get(root.TraceID()) != nil {
		t.Fatal("boring 200 trace was retained with sampling disabled")
	}
}

func TestRetentionKeepsSlow(t *testing.T) {
	tr := newTestTracer(Options{SlowThreshold: time.Nanosecond})
	_, root := tr.StartSpan(context.Background(), "req")
	root.SetHTTPStatus(200)
	time.Sleep(time.Millisecond)
	root.End()
	got := tr.Get(root.TraceID())
	if got == nil {
		t.Fatal("slow trace was not retained")
	}
	if snap := got.Snapshot("test"); snap.Retained != "slow" {
		t.Fatalf("retained reason = %q, want slow", snap.Retained)
	}
}

func TestSamplingRetainsEverythingAtRateOne(t *testing.T) {
	tr := newTestTracer(Options{SampleRate: 1, SlowThreshold: time.Hour})
	for i := 0; i < 10; i++ {
		_, root := tr.StartSpan(context.Background(), "req")
		root.SetHTTPStatus(200)
		root.End()
		if tr.Get(root.TraceID()) == nil {
			t.Fatalf("trace %d dropped at sample rate 1", i)
		}
	}
}

func TestEndIdempotentAndCommitOnce(t *testing.T) {
	tel := newTestTracer(Options{SampleRate: 1})
	_, root := tel.StartSpan(context.Background(), "req")
	root.End()
	d1 := root.durNS.Load()
	time.Sleep(2 * time.Millisecond)
	root.End()
	if d2 := root.durNS.Load(); d2 != d1 {
		t.Fatalf("second End changed duration: %d -> %d", d1, d2)
	}

	// Concurrent first Ends: one winner freezes the duration and commits
	// the trace exactly once.
	_, root2 := tel.StartSpan(context.Background(), "req2")
	var wg sync.WaitGroup
	for i := 0; i < 16; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			root2.End()
		}()
	}
	wg.Wait()
	d := root2.durNS.Load()
	time.Sleep(2 * time.Millisecond)
	root2.End()
	if root2.durNS.Load() != d {
		t.Fatal("duration moved after concurrent Ends")
	}
	tel.ring.mu.Lock()
	commits := tel.ring.total
	tel.ring.mu.Unlock()
	if commits != 2 {
		t.Fatalf("ring received %d commits for 2 traces", commits)
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	tr := newTestTracer(Options{RingSize: 2, SampleRate: 1})
	var ids []TraceID
	for i := 0; i < 3; i++ {
		_, root := tr.StartSpan(context.Background(), "req")
		root.End()
		ids = append(ids, root.TraceID())
	}
	if tr.Get(ids[0]) != nil {
		t.Fatal("oldest trace should have been overwritten")
	}
	if tr.Get(ids[1]) == nil || tr.Get(ids[2]) == nil {
		t.Fatal("newest traces missing from ring")
	}
	recent := tr.ring.recent()
	if len(recent) != 2 {
		t.Fatalf("recent len = %d, want 2", len(recent))
	}
	if recent[0].id != ids[2] || recent[1].id != ids[1] {
		t.Fatal("recent not newest-first")
	}
}

func TestStartRequestContinuesRemoteTrace(t *testing.T) {
	tr := newTestTracer(Options{SampleRate: 1})
	remote := Link{TraceID: TraceID{Hi: 7, Lo: 9}, SpanID: 11, Sampled: true}
	req := httptest.NewRequest("GET", "/v1/sphere/1", nil)
	req.Header.Set(TraceparentHeader, FormatTraceparent(remote.TraceID, remote.SpanID, remote.Sampled))
	ctx, span := tr.StartRequest(req, "soid.sphere")
	if got := span.TraceID(); got != remote.TraceID {
		t.Fatalf("continued trace id = %v, want %v", got, remote.TraceID)
	}
	if span.parent != remote.SpanID {
		t.Fatalf("span parent = %v, want %v", span.parent, remote.SpanID)
	}
	_, child := StartChild(ctx, "compute")
	child.End()
	span.End()

	got := tr.Get(remote.TraceID)
	if got == nil {
		t.Fatal("continued trace not retained")
	}
	snap := got.Snapshot("test")
	if len(snap.Spans) != 1 {
		t.Fatalf("root count = %d, want 1", len(snap.Spans))
	}
	root := snap.Spans[0]
	if !root.RemoteParent {
		t.Fatal("continued root should be flagged remote_parent")
	}
	if root.ParentSpanID != remote.SpanID.String() {
		t.Fatalf("root parent = %q, want %q", root.ParentSpanID, remote.SpanID.String())
	}
	if len(root.Children) != 1 || root.Children[0].Name != "compute" {
		t.Fatalf("child spans = %+v", root.Children)
	}
}

func TestSharedTracerAssemblesOneTrace(t *testing.T) {
	// A gateway span and a "remote" server span continuing it via
	// traceparent land in the same Trace when the tracer is shared — the
	// basis for the end-to-end acceptance test.
	tr := newTestTracer(Options{SampleRate: 1})
	ctx, gw := tr.StartSpan(context.Background(), "soigw.spread")
	_, leg := StartChild(ctx, "shard.leg", Int("shard", 0))

	req := httptest.NewRequest("GET", "/v1/spread", nil)
	req.Header.Set(TraceparentHeader, leg.Traceparent())
	_, srv := tr.StartRequest(req, "soid.spread")
	if srv.TraceID() != gw.TraceID() {
		t.Fatal("server span did not join the gateway trace")
	}
	srv.End()
	leg.End()
	gw.End()

	snap := tr.Get(gw.TraceID()).Snapshot("test")
	if len(snap.Spans) != 1 {
		t.Fatalf("want single root, got %d", len(snap.Spans))
	}
	legJSON := snap.Spans[0].Children
	if len(legJSON) != 1 || len(legJSON[0].Children) != 1 {
		t.Fatalf("span tree mismatch: %+v", snap.Spans)
	}
	if legJSON[0].Children[0].Name != "soid.spread" {
		t.Fatalf("server span not parented under leg: %+v", legJSON[0])
	}
}

func TestHandlerServesListAndTree(t *testing.T) {
	tr := newTestTracer(Options{SampleRate: 1})
	ctx, root := tr.StartSpan(context.Background(), "req", String("endpoint", "sphere"))
	root.SetHTTPStatus(206)
	root.Event("degraded", Int("achieved", 120), Int("requested", 400))
	_, child := StartChild(ctx, "compute")
	child.End()
	root.End()

	h := tr.Handler("/debug/traces")

	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces", nil))
	if rec.Code != 200 {
		t.Fatalf("list status = %d", rec.Code)
	}
	var list struct {
		Schema string        `json:"schema"`
		Traces []summaryJSON `json:"traces"`
	}
	if err := json.Unmarshal(rec.Body.Bytes(), &list); err != nil {
		t.Fatalf("list decode: %v", err)
	}
	if list.Schema != Schema || len(list.Traces) != 1 {
		t.Fatalf("list = %+v", list)
	}
	if list.Traces[0].HTTPStatus != 206 || list.Traces[0].Retained != "partial" {
		t.Fatalf("summary = %+v", list.Traces[0])
	}

	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+root.RequestID(), nil))
	if rec.Code != 200 {
		t.Fatalf("tree status = %d", rec.Code)
	}
	var tree TraceJSON
	if err := json.Unmarshal(rec.Body.Bytes(), &tree); err != nil {
		t.Fatalf("tree decode: %v", err)
	}
	if tree.Schema != Schema {
		t.Fatalf("tree schema = %q", tree.Schema)
	}
	if tree.TraceID != root.RequestID() {
		t.Fatalf("tree id = %q, want %q", tree.TraceID, root.RequestID())
	}
	spans := tree.Spans
	if len(spans) != 1 || len(spans[0].Children) != 1 {
		t.Fatalf("tree shape: %+v", spans)
	}
	if len(spans[0].Events) != 1 || spans[0].Events[0].Name != "degraded" {
		t.Fatalf("events: %+v", spans[0].Events)
	}
	if got := spans[0].Attrs["endpoint"]; got != "sphere" {
		t.Fatalf("attrs: %+v", spans[0].Attrs)
	}

	// Unknown and malformed ids.
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/"+strings.Repeat("ab", 16), nil))
	if rec.Code != http.StatusNotFound {
		t.Fatalf("unknown id status = %d", rec.Code)
	}
	rec = httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", "/debug/traces/zzz", nil))
	if rec.Code != http.StatusBadRequest {
		t.Fatalf("bad id status = %d", rec.Code)
	}
}

func TestInjectSetsTraceparent(t *testing.T) {
	tr := newTestTracer(Options{})
	ctx, span := tr.StartSpan(context.Background(), "leg")
	h := http.Header{}
	Inject(ctx, h)
	link, ok := ParseTraceparent(h.Get(TraceparentHeader))
	if !ok {
		t.Fatalf("injected traceparent unparseable: %q", h.Get(TraceparentHeader))
	}
	if link.TraceID != span.TraceID() || link.SpanID != span.ID() {
		t.Fatalf("injected link %+v does not match span", link)
	}
	// No span in ctx → no header.
	h2 := http.Header{}
	Inject(context.Background(), h2)
	if h2.Get(TraceparentHeader) != "" {
		t.Fatal("Inject wrote header without a span")
	}
	span.End()
}

func TestConcurrentSpanUse(t *testing.T) {
	tr := newTestTracer(Options{SampleRate: 1})
	ctx, root := tr.StartSpan(context.Background(), "req")
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			_, c := StartChild(ctx, "worker")
			c.Event("tick", Int("i", int64(i)))
			c.SetAttrs(Int("i", int64(i)))
			c.End()
		}(i)
	}
	// Late events, and Ends of the root, racing with child starts and
	// snapshotting must be safe.
	wg.Add(2)
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			root.Event("late")
		}
	}()
	go func() {
		defer wg.Done()
		for i := 0; i < 100; i++ {
			root.End()
		}
	}()
	wg.Wait()
	snap := tr.Get(root.TraceID()).Snapshot("test")
	if len(snap.Spans[0].Children) != 8 {
		t.Fatalf("children = %d, want 8", len(snap.Spans[0].Children))
	}
	if snap.Spans[0].Running {
		t.Fatal("ended root snapshots as running")
	}
}

func TestRequestLogJSONL(t *testing.T) {
	var buf bytes.Buffer
	l := NewRequestLog(&buf)
	l.Log(RequestRecord{
		Service:  "soid",
		TraceID:  "abc",
		Endpoint: "sphere",
		Path:     "/v1/sphere/3",
		Status:   206,
		Partial:  true, Achieved: 120, Requested: 400, ErrorBound: 0.08,
	})
	l.Log(RequestRecord{Service: "soigw", Endpoint: "spread", Status: 200,
		ShardsOK: 2, ShardsTotal: 2})
	lines := strings.Split(strings.TrimSpace(buf.String()), "\n")
	if len(lines) != 2 {
		t.Fatalf("lines = %d, want 2", len(lines))
	}
	var rec RequestRecord
	if err := json.Unmarshal([]byte(lines[0]), &rec); err != nil {
		t.Fatalf("line 1 decode: %v", err)
	}
	if rec.Status != 206 || !rec.Partial || rec.Achieved != 120 || rec.Time.IsZero() {
		t.Fatalf("record = %+v", rec)
	}
	// nil log discards.
	var nilLog *RequestLog
	nilLog.Log(RequestRecord{})
	if err := nilLog.Close(); err != nil {
		t.Fatalf("nil Close: %v", err)
	}
}

func TestOpenRequestLogAppends(t *testing.T) {
	path := t.TempDir() + "/req.jsonl"
	l, err := OpenRequestLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l.Log(RequestRecord{Endpoint: "a", Status: 200})
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := OpenRequestLog(path)
	if err != nil {
		t.Fatal(err)
	}
	l2.Log(RequestRecord{Endpoint: "b", Status: 200})
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(strings.Split(strings.TrimSpace(string(b)), "\n")); got != 2 {
		t.Fatalf("appended log lines = %d, want 2", got)
	}
}
