package daemon

import (
	"context"
	"net/http"
	"sync/atomic"
	"time"

	"soi/internal/api"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// The request budget: DefaultBudget applies when a request carries no
// budget parameter, and MaxBudget caps the parameter. Both tiers use the
// same pair.
const (
	DefaultBudget = 2 * time.Second
	MaxBudget     = 30 * time.Second
)

// maxBudget is the cap the pipeline applies: MaxBudget, lowered only by
// tests that need a capped budget to run out quickly.
var maxBudget = MaxBudget

// Envelope is the one /v1 request pipeline of soid and soigw:
//
//	drain check → budget → cache lookup → singleflight → Compute → write
//
// with, around it, the request counters, the root span and its
// X-SOI-Request-ID header, per-endpoint latency, the degraded counter and
// span event, the error envelope and the request-log line. A daemon hands
// it only what differs: what it computes (Compute), what its answers are
// computed from (KeySuffix), and how its errors map onto the wire (Fail).
// Metrics are "<Prefix>.requests", "<Prefix>.req.<endpoint>",
// "<Prefix>.latency_ns.<endpoint>" and "<Prefix>.degraded".
type Envelope struct {
	// Service names the daemon ("soid", "soigw"): root spans are
	// "<Service>.<endpoint>" and request-log lines carry it.
	Service string
	// Metrics receives the pipeline's counters and histograms, and rides on
	// the compute context, so the ctx-first estimators a Compute calls meter
	// into it too; nil disables them.
	Metrics *telemetry.Registry
	Prefix  string
	// Tracer roots or continues a trace per request; nil disables tracing.
	Tracer *trace.Tracer
	// RequestLog receives one line per request; nil disables it.
	RequestLog *trace.RequestLog
	// Draining is the daemon's drain flag; once set, requests are refused
	// with a retryable 503 "draining" whose message is DrainMsg.
	Draining *atomic.Bool
	DrainMsg string
	// Fail maps an error onto the envelope written to the client. It sees
	// every refusal, the pipeline's own (draining, bad budget) included.
	Fail func(error) *api.Error
	// Cache keeps the complete answers of cacheable endpoints.
	Cache *Cache
	// KeySuffix names the artifacts answers are computed from; it ends
	// every cache key (Cache.Key).
	KeySuffix func() string
	// Overrun puts the compute context's hard deadline this far past the
	// budget. Zero makes the budget a hard timeout; soid leaves a grace so
	// that sampling stops at the budget itself and degrades to a 206
	// instead of racing the context's cancellation.
	Overrun time.Duration
}

// Compute is what a daemon computes for one /v1 request. The context of
// req carries the request's Budget (BudgetOf) and the Envelope's Metrics
// (telemetry.FromContext), and ends at its hard deadline; for a cacheable
// endpoint it is detached from the client, since every request that joins
// the flight shares the answer. An error is mapped through Fail.
type Compute func(req *http.Request) (*Answer, error)

// Budget is one request's wall-clock budget.
type Budget struct {
	// Duration is the budget parameter, capped at MaxBudget, or
	// DefaultBudget when the request has none.
	Duration time.Duration
	// Deadline is the instant it runs out: samplers stop there and a
	// truncated answer degrades to 206.
	Deadline time.Time
}

type budgetKey struct{}

// BudgetOf returns the budget of the request ctx belongs to; zero (no
// deadline) outside the pipeline.
func BudgetOf(ctx context.Context) Budget {
	b, _ := ctx.Value(budgetKey{}).(Budget)
	return b
}

// Endpoint puts compute under the pipeline as the named endpoint. A
// cacheable endpoint's complete answers are kept in Cache and replayed to
// later requests; identical requests in flight share one compute.
func (e *Envelope) Endpoint(name string, cacheable bool, compute Compute) http.Handler {
	return &endpoint{
		e:         e,
		name:      name,
		spanName:  e.Service + "." + name,
		cacheable: cacheable,
		compute:   compute,
		requests:  e.Metrics.Counter(e.Prefix + ".requests"),
		calls:     e.Metrics.Counter(e.Prefix + ".req." + name),
		latency:   e.Metrics.Histogram(e.Prefix + ".latency_ns." + name),
		degraded:  e.Metrics.Counter(e.Prefix + ".degraded"),
	}
}

type endpoint struct {
	e               *Envelope
	name, spanName  string
	cacheable       bool
	compute         Compute
	requests, calls *telemetry.Counter
	degraded        *telemetry.Counter
	latency         *telemetry.Histogram
}

func (ep *endpoint) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	start := time.Now()
	ep.requests.Inc()

	// Root-or-continued span: a bare client request roots a fresh trace; a
	// gateway leg carrying traceparent joins the gateway's trace. The trace
	// id is echoed as X-SOI-Request-ID so the client can quote it at
	// /debug/traces/{id}.
	rctx, span := ep.e.Tracer.StartRequest(req, ep.spanName,
		trace.String("endpoint", ep.name), trace.String("path", req.URL.Path))
	if span != nil {
		req = req.WithContext(rctx)
		w.Header().Set(trace.RequestIDHeader, span.RequestID())
	}

	rec, err := ep.serve(w, req, start, span)
	if err != nil {
		ae := ep.e.Fail(err)
		api.WriteError(w, ae)
		rec.Status, rec.ErrorCode = ae.Status, ae.Code
	}

	span.SetHTTPStatus(rec.Status)
	if rec.ErrorCode != "" {
		span.SetError(rec.ErrorCode)
	}
	span.End()
	if l := ep.e.RequestLog; l != nil {
		rec.Service = ep.e.Service
		rec.TraceID = span.RequestID()
		rec.Endpoint = ep.name
		rec.Path = req.URL.RequestURI()
		rec.DurationMS = float64(time.Since(start)) / float64(time.Millisecond)
		l.Log(rec)
	}
}

// serve answers one admitted request. On success it has written the answer
// and returns its request-log record; on failure it has written nothing and
// returns the error, with whatever cache state the record already has.
func (ep *endpoint) serve(w http.ResponseWriter, req *http.Request, start time.Time, span *trace.Span) (trace.RequestRecord, error) {
	e := ep.e
	if e.Draining.Load() {
		return trace.RequestRecord{}, &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeDraining,
			Msg: e.DrainMsg, RetryAfter: time.Second}
	}
	q := req.URL.Query()
	d, err := api.Budget(q, DefaultBudget, maxBudget)
	if err != nil {
		return trace.RequestRecord{}, err
	}
	ep.calls.Inc()
	defer func() { ep.latency.ObserveExemplar(time.Since(start).Nanoseconds(), span.RequestID()) }()

	key := ""
	if ep.cacheable {
		key = e.Cache.Key(ep.name, req.URL.Path, q, e.KeySuffix())
	}
	if ans, hit := e.Cache.lookup(req.Context(), key); hit {
		ans.Write(w, true)
		return ans.Record("hit"), nil
	}

	// A cached key's answer is shared with every follower that joins its
	// flight, so the leader's client hanging up must not cut the compute
	// short and hand the followers an error or a degraded answer: it runs
	// detached from that client, bounded by the budget alone.
	base := req.Context()
	if key != "" {
		base = context.WithoutCancel(base)
	}
	b := Budget{Duration: d, Deadline: start.Add(d)}
	base = telemetry.NewContext(context.WithValue(base, budgetKey{}, b), e.Metrics)
	ctx, cancel := context.WithDeadline(base, b.Deadline.Add(e.Overrun))
	defer cancel()
	req = req.WithContext(ctx)
	ans, state, err := e.Cache.do(ctx, key, d, func() (*Answer, error) { return ep.compute(req) })
	if err != nil {
		return trace.RequestRecord{Cache: state}, err
	}
	if ans.Status == http.StatusPartialContent {
		ep.degraded.Inc()
		// The degradation event ties the 206 to its cause on the root span:
		// how much sampling the budget bought, how many worlds quarantine
		// took, and on the gateway how many shards answered.
		p := ans.Partial
		attrs := []trace.Attr{
			trace.Int("achieved", int64(p.Achieved)),
			trace.Int("requested", int64(p.Requested)),
			trace.Float("error_bound", p.ErrorBound),
			trace.Int("worlds_used", int64(p.WorldsUsed)),
			trace.Int("worlds_quarantined", int64(p.WorldsQuarantined)),
		}
		if sc := p.Scatter; sc != nil {
			attrs = append(attrs, trace.Int("shards_ok", int64(sc.ShardsOK)), trace.Int("shards_total", int64(sc.ShardsTotal)))
		}
		span.Event("degraded", attrs...)
	}
	ans.Write(w, false)
	return ans.Record(state), nil
}
