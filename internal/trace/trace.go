// Package trace is the distributed-tracing companion to internal/telemetry:
// a zero-dependency layer of timed spans with typed attributes and events,
// organized into per-request traces, carried in-process via context.Context
// and across processes via the W3C traceparent header. soigw opens a root
// span per gateway request plus one child span per shard leg; each soid
// continues the trace on its side of the wire, so the combined span tree
// shows a scatter-gather request end to end — which shard timed out, which
// leg was hedged, where the latency went.
//
// The design follows the telemetry package's one invariant: disabled tracing
// must cost (almost) nothing. A nil *Tracer hands out nil *Spans, every Span
// method is nil-safe, and instrumented code never branches on "tracing
// enabled?" — the disabled cost is a nil check per event
// (BenchmarkSpanEventDisabled).
//
// Completed traces are retained tail-based in a fixed-size ring buffer (see
// ring.go): errors, partial (206) answers, and slow requests are always
// kept; the unremarkable rest is sampled probabilistically. The ring, and
// the traces still running, are served as JSON (schema soi.trace/v1) on
// /debug/traces and /debug/traces/{id} (see http.go).
package trace

import (
	"context"
	"crypto/rand"
	"encoding/binary"
	"net/http"
	"sort"
	"sync"
	"sync/atomic"
	"time"

	"soi/internal/telemetry"
)

// RequestIDHeader is echoed on every soid/soigw response carrying the
// request's trace id, so a client can quote the id back to an operator (or
// straight to /debug/traces/{id}) when reporting a slow or degraded answer.
const RequestIDHeader = "X-SOI-Request-ID"

// Options assembles a Tracer. The zero value selects serving-sensible
// defaults everywhere.
type Options struct {
	// Service names this process in trace output ("soid", "soigw").
	Service string
	// RingSize bounds the retained-trace ring buffer in traces; 0 selects
	// 512.
	RingSize int
	// SampleRate is the probability that an unremarkable trace (no error, no
	// 206, under the latency threshold) is retained anyway; 0 selects 0.01,
	// negative disables sampling (only remarkable traces are kept).
	SampleRate float64
	// SlowThreshold marks a trace "slow" (always retained) when its local
	// root span runs at least this long; 0 selects 500ms.
	SlowThreshold time.Duration
	// Telemetry receives trace.started / trace.retained / trace.dropped
	// counters; nil disables instrumentation.
	Telemetry *telemetry.Registry
}

func (o Options) ringSize() int {
	if o.RingSize <= 0 {
		return 512
	}
	return o.RingSize
}

func (o Options) sampleRate() float64 {
	if o.SampleRate == 0 {
		return 0.01
	}
	if o.SampleRate < 0 {
		return 0
	}
	if o.SampleRate > 1 {
		return 1
	}
	return o.SampleRate
}

func (o Options) slowThreshold() time.Duration {
	if o.SlowThreshold <= 0 {
		return 500 * time.Millisecond
	}
	return o.SlowThreshold
}

// Tracer owns a process's traces: it mints ids, tracks traces with open
// spans, and retains completed traces in the ring. A nil *Tracer is a valid
// "tracing disabled" tracer whose StartRequest/StartSpan return nil spans.
type Tracer struct {
	opts Options
	ring *ring

	// idBase seeds span/trace id generation; idCtr makes every id unique
	// within the process. Ids are splitmix64 outputs, so they are uniform
	// enough for the deterministic sampling decision.
	idBase uint64
	idCtr  atomic.Uint64

	mu     sync.Mutex
	active map[TraceID]*Trace

	mStarted  *telemetry.Counter
	mRetained *telemetry.Counter
	mDropped  *telemetry.Counter
}

// New returns an enabled tracer.
func New(opts Options) *Tracer {
	var seed [8]byte
	if _, err := rand.Read(seed[:]); err != nil {
		// crypto/rand failing is effectively impossible; fall back to the
		// clock so ids are still distinct across processes.
		binary.LittleEndian.PutUint64(seed[:], uint64(time.Now().UnixNano()))
	}
	tel := opts.Telemetry
	return &Tracer{
		opts:      opts,
		ring:      newRing(opts.ringSize()),
		idBase:    binary.LittleEndian.Uint64(seed[:]),
		active:    make(map[TraceID]*Trace),
		mStarted:  tel.Counter("trace.started"),
		mRetained: tel.Counter("trace.retained"),
		mDropped:  tel.Counter("trace.dropped"),
	}
}

// Service returns the configured service name ("" on a nil tracer).
func (t *Tracer) Service() string {
	if t == nil {
		return ""
	}
	return t.opts.Service
}

// splitmix64 is the id mixer: uniform, fast, and stateless given a distinct
// input per call.
func splitmix64(x uint64) uint64 {
	x += 0x9e3779b97f4a7c15
	x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9
	x = (x ^ (x >> 27)) * 0x94d049bb133111eb
	return x ^ (x >> 31)
}

func (t *Tracer) nextID() uint64 {
	id := splitmix64(t.idBase + t.idCtr.Add(1))
	if id == 0 {
		id = 1 // all-zero ids are "absent" in the W3C encoding
	}
	return id
}

func (t *Tracer) newTraceID() TraceID {
	return TraceID{Hi: t.nextID(), Lo: t.nextID()}
}

// Trace is one request's tree of spans as seen by this process. In a
// sharded deployment each process holds its own fragment of the distributed
// trace (same TraceID, spans linked by parent ids across the wire).
type Trace struct {
	id      TraceID
	idStr   string // id.String(), rendered once — read per request for headers and exemplars
	tracer  *Tracer
	start   time.Time
	sampled bool // traceparent sampled flag (propagated downstream)

	mu    sync.Mutex
	spans []*Span // in start order; spans[0] is the local root
	// retainReason is set at commit time ("error", "partial", "slow",
	// "sampled"); empty while the trace is active.
	retainReason string
}

// ID returns the trace id.
func (tr *Trace) ID() TraceID { return tr.id }

// localRoot is the first span this process opened for the trace; its End
// commits the trace to the ring.
func (tr *Trace) localRoot() *Span {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	if len(tr.spans) == 0 {
		return nil
	}
	return tr.spans[0]
}

func (tr *Trace) addSpan(s *Span) {
	tr.mu.Lock()
	tr.spans = append(tr.spans, s)
	tr.mu.Unlock()
}

// newTrace registers a fresh active trace.
func (t *Tracer) newTrace(id TraceID, sampled bool) *Trace {
	tr := &Trace{id: id, idStr: id.String(), tracer: t, start: time.Now(), sampled: sampled}
	t.mu.Lock()
	// Backstop against unbounded growth if spans leak without End: drop
	// tracking (not correctness) beyond a generous cap. Request spans are
	// ended by deferred calls in the HTTP wrappers, so this never triggers
	// in practice.
	if len(t.active) < 65536 {
		t.active[id] = tr
	}
	t.mu.Unlock()
	t.mStarted.Inc()
	return tr
}

// adopt returns the active trace for id, or creates one continuing a remote
// parent. Sharing a Tracer between a gateway and its shards (tests, single
// process deployments) therefore assembles the full tree in one Trace.
func (t *Tracer) adopt(id TraceID, sampled bool) *Trace {
	t.mu.Lock()
	tr, ok := t.active[id]
	t.mu.Unlock()
	if ok {
		return tr
	}
	return t.newTrace(id, sampled)
}

// activeTrace returns the running trace with the given id, or nil.
func (t *Tracer) activeTrace(id TraceID) *Trace {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.active[id]
}

// running returns the traces whose local root is still open, newest first.
func (t *Tracer) running() []*Trace {
	t.mu.Lock()
	out := make([]*Trace, 0, len(t.active))
	for _, tr := range t.active {
		out = append(out, tr)
	}
	t.mu.Unlock()
	sort.Slice(out, func(i, j int) bool { return out[i].start.After(out[j].start) })
	return out
}

// commit retires a trace whose local root ended: the tail-based retention
// decision runs and the trace enters the ring (or not).
func (t *Tracer) commit(tr *Trace) {
	t.mu.Lock()
	delete(t.active, tr.id)
	t.mu.Unlock()
	reason := t.retention(tr)
	if reason == "" {
		t.mDropped.Inc()
		return
	}
	tr.mu.Lock()
	tr.retainReason = reason
	tr.mu.Unlock()
	t.mRetained.Inc()
	t.ring.add(tr)
}

// retention is the tail-based keep/drop decision: errors, partial (206)
// answers, and slow roots are always kept; the rest is sampled
// deterministically from the trace id.
func (t *Tracer) retention(tr *Trace) string {
	// Read under the trace lock (no copy): commit runs once per request and
	// only touches per-span atomics.
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := tr.spans
	partial := false
	for _, s := range spans {
		if s.errMsg.Load() != nil {
			return "error"
		}
		switch st := int(s.httpStatus.Load()); {
		case st >= 400:
			return "error"
		case st == http.StatusPartialContent:
			partial = true
		}
	}
	if partial {
		return "partial"
	}
	if len(spans) > 0 && spans[0].ended.Load() &&
		time.Duration(spans[0].durNS.Load()) >= t.opts.slowThreshold() {
		return "slow"
	}
	// Deterministic coin flip from the trace id: the same trace is kept or
	// dropped by every observer.
	if rate := t.opts.sampleRate(); rate > 0 {
		if float64(splitmix64(tr.id.Lo)>>11)/float64(1<<53) < rate {
			return "sampled"
		}
	}
	return ""
}

// --- span creation --------------------------------------------------------

type ctxKey struct{}

// ContextWithSpan returns ctx carrying s.
func ContextWithSpan(ctx context.Context, s *Span) context.Context {
	return context.WithValue(ctx, ctxKey{}, s)
}

// FromContext returns the span carried by ctx, or nil.
func FromContext(ctx context.Context) *Span {
	s, _ := ctx.Value(ctxKey{}).(*Span)
	return s
}

func (t *Tracer) newSpan(tr *Trace, parent SpanID, name string, attrs []Attr) *Span {
	s := &Span{
		trace:  tr,
		id:     SpanID(t.nextID()),
		parent: parent,
		name:   name,
		start:  time.Now(),
		attrs:  attrs,
	}
	tr.addSpan(s)
	return s
}

// StartSpan opens a span: a child of the span in ctx when one is present, a
// fresh root trace otherwise. Returns ctx unchanged and a nil span on a nil
// tracer.
func (t *Tracer) StartSpan(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	if t == nil {
		return ctx, nil
	}
	if parent := FromContext(ctx); parent != nil {
		c := t.newSpan(parent.trace, parent.id, name, attrs)
		return ContextWithSpan(ctx, c), c
	}
	tr := t.newTrace(t.newTraceID(), true)
	s := t.newSpan(tr, 0, name, attrs)
	return ContextWithSpan(ctx, s), s
}

// StartRequest opens the server span for an incoming HTTP request: when the
// request carries a valid traceparent header the trace is continued (the new
// span's parent is the caller's span), otherwise a fresh trace starts.
func (t *Tracer) StartRequest(req *http.Request, name string, attrs ...Attr) (context.Context, *Span) {
	ctx := req.Context()
	if t == nil {
		return ctx, nil
	}
	link, ok := ParseTraceparent(req.Header.Get(TraceparentHeader))
	if !ok {
		return t.StartSpan(ctx, name, attrs...)
	}
	tr := t.adopt(link.TraceID, link.Sampled)
	s := t.newSpan(tr, link.SpanID, name, attrs)
	return ContextWithSpan(ctx, s), s
}

// StartChild opens a child of the span carried by ctx. With no span in ctx
// (tracing disabled, or an uninstrumented caller) it returns ctx and nil —
// the disabled path costs one context lookup.
func StartChild(ctx context.Context, name string, attrs ...Attr) (context.Context, *Span) {
	c := Child(ctx, name, attrs...)
	if c == nil {
		return ctx, nil
	}
	return ContextWithSpan(ctx, c), c
}

// Child opens a child of the span carried by ctx without deriving a new
// context — for leaf operations that never propagate the span further
// (cache lookups, admission waits). Saves a context allocation per span.
func Child(ctx context.Context, name string, attrs ...Attr) *Span {
	parent := FromContext(ctx)
	if parent == nil {
		return nil
	}
	return parent.trace.tracer.newSpan(parent.trace, parent.id, name, attrs)
}

// --- spans ----------------------------------------------------------------

// Attr is one typed key/value attribute on a span or event. Values are
// restricted to the constructors' types (string, int64, float64, bool) so
// JSON output is stable.
type Attr struct {
	Key   string
	Value any
}

// String returns a string attribute.
func String(k, v string) Attr { return Attr{Key: k, Value: v} }

// Int returns an integer attribute.
func Int(k string, v int64) Attr { return Attr{Key: k, Value: v} }

// Float returns a float attribute.
func Float(k string, v float64) Attr { return Attr{Key: k, Value: v} }

// Bool returns a boolean attribute.
func Bool(k string, v bool) Attr { return Attr{Key: k, Value: v} }

// Event is a timestamped point-in-time annotation on a span (a retry fired,
// a breaker opened, a merge widened a bound).
type Event struct {
	Name  string
	At    time.Time
	Attrs []Attr
}

// Span is one timed operation inside a trace. All methods are safe for
// concurrent use and nil-safe: a nil *Span discards everything.
type Span struct {
	trace  *Trace
	id     SpanID
	parent SpanID // 0 = local root with no parent
	name   string
	start  time.Time

	ended      atomic.Bool
	durNS      atomic.Int64
	httpStatus atomic.Int32
	errMsg     atomic.Pointer[string]

	mu     sync.Mutex
	attrs  []Attr
	events []Event
}

// TraceID returns the id of the span's trace (zero on a nil span).
func (s *Span) TraceID() TraceID {
	if s == nil {
		return TraceID{}
	}
	return s.trace.id
}

// Trace returns the trace the span belongs to (nil on a nil span), so a
// batch run can snapshot its root span's subtree while the span is live.
func (s *Span) Trace() *Trace {
	if s == nil {
		return nil
	}
	return s.trace
}

// ID returns the span id (zero on a nil span).
func (s *Span) ID() SpanID {
	if s == nil {
		return 0
	}
	return s.id
}

// SetAttrs appends attributes to the span.
func (s *Span) SetAttrs(attrs ...Attr) {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.attrs = append(s.attrs, attrs...)
	s.mu.Unlock()
}

// Event records a timestamped event on the span.
func (s *Span) Event(name string, attrs ...Attr) {
	if s == nil {
		return
	}
	ev := Event{Name: name, At: time.Now(), Attrs: attrs}
	s.mu.Lock()
	s.events = append(s.events, ev)
	s.mu.Unlock()
}

// SetHTTPStatus records the HTTP status the span's operation produced; 206
// and >=400 statuses feed the tail-based retention decision.
func (s *Span) SetHTTPStatus(code int) {
	if s == nil {
		return
	}
	s.httpStatus.Store(int32(code))
}

// SetError marks the span failed. Errored traces are always retained.
func (s *Span) SetError(msg string) {
	if s == nil {
		return
	}
	s.errMsg.Store(&msg)
}

// End closes the span, freezing its duration. Idempotent: only the first
// call wins. Ending a trace's local root commits the trace to the ring.
func (s *Span) End() {
	if s == nil {
		return
	}
	if !s.ended.CompareAndSwap(false, true) {
		return
	}
	s.durNS.Store(int64(time.Since(s.start)))
	tr := s.trace
	if tr.localRoot() == s {
		tr.tracer.commit(tr)
	}
}

// Traceparent renders the span as an outgoing W3C traceparent value, so the
// next hop continues this trace with this span as parent. Empty on nil.
func (s *Span) Traceparent() string {
	if s == nil {
		return ""
	}
	return FormatTraceparent(s.trace.id, s.id, s.trace.sampled)
}

// Inject sets the traceparent header for an outgoing request when ctx
// carries a span; a no-op otherwise.
func Inject(ctx context.Context, h http.Header) {
	if s := FromContext(ctx); s != nil {
		h.Set(TraceparentHeader, s.Traceparent())
	}
}

// RequestID returns the trace id string for the span ("" on nil): the value
// echoed in the X-SOI-Request-ID response header.
func (s *Span) RequestID() string {
	if s == nil {
		return ""
	}
	return s.trace.idStr
}
