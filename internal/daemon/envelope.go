package daemon

import (
	"net/http"
	"net/url"
	"sync/atomic"
	"time"

	"soi/internal/api"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Envelope is the shared half of every /v1 endpoint of soid and soigw: the
// request counter, the root span and its X-SOI-Request-ID header, the drain
// check, budget parsing, the error envelope, and the request-log line. What
// an endpoint computes, caches or scatters stays in its Func.
type Envelope struct {
	// Service names the daemon ("soid", "soigw"): root spans are
	// "<Service>.<endpoint>" and request-log lines carry it.
	Service string
	// Metrics receives "<Prefix>.requests", one count per request; nil
	// disables it.
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
	// DefaultBudget applies when the request has no budget parameter;
	// MaxBudget caps the parameter.
	DefaultBudget, MaxBudget time.Duration
	// Fail maps an error onto the envelope written to the client. It sees
	// every refusal, the envelope's own (draining, bad budget) included.
	Fail func(error) *api.Error
}

// Call is what the envelope hands an endpoint besides the request: when the
// request started, its root span (nil when tracing is off), its parsed query
// and its budget.
type Call struct {
	Start  time.Time
	Span   *trace.Span
	Query  url.Values
	Budget time.Duration
}

// Func is one /v1 endpoint under the envelope. On success it writes the
// answer and returns the request-log record with Status and its own fields
// set (cache state, degradation, scatter counts); an ErrorCode there marks
// the answer as an error. On failure it writes nothing and returns the
// error, which the envelope maps through Fail and writes; the record's own
// fields are still logged.
type Func func(w http.ResponseWriter, req *http.Request, c Call) (trace.RequestRecord, error)

// Wrap puts endpoint fn under the envelope.
func (e *Envelope) Wrap(endpoint string, fn Func) http.Handler {
	spanName := e.Service + "." + endpoint
	requests := e.Metrics.Counter(e.Prefix + ".requests")
	return http.HandlerFunc(func(w http.ResponseWriter, req *http.Request) {
		c := Call{Start: time.Now()}
		requests.Inc()

		// Root-or-continued span: a bare client request roots a fresh trace;
		// a gateway leg carrying traceparent joins the gateway's trace. The
		// trace id is echoed as X-SOI-Request-ID so the client can quote it
		// at /debug/traces/{id}.
		rctx, span := e.Tracer.StartRequest(req, spanName,
			trace.String("endpoint", endpoint), trace.String("path", req.URL.Path))
		if span != nil {
			req = req.WithContext(rctx)
			w.Header().Set(trace.RequestIDHeader, span.RequestID())
		}
		c.Span = span

		var rec trace.RequestRecord
		var err error
		if e.Draining.Load() {
			err = &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeDraining,
				Msg: e.DrainMsg, RetryAfter: time.Second}
		} else {
			c.Query = req.URL.Query()
			if c.Budget, err = api.Budget(c.Query, e.DefaultBudget, e.MaxBudget); err == nil {
				rec, err = fn(w, req, c)
			}
		}
		if err != nil {
			ae := e.Fail(err)
			api.WriteError(w, ae)
			rec.Status, rec.ErrorCode = ae.Status, ae.Code
		}

		span.SetHTTPStatus(rec.Status)
		if rec.ErrorCode != "" {
			span.SetError(rec.ErrorCode)
		}
		span.End()
		if e.RequestLog != nil {
			rec.Service = e.Service
			rec.TraceID = span.RequestID()
			rec.Endpoint = endpoint
			rec.Path = req.URL.RequestURI()
			rec.DurationMS = float64(time.Since(c.Start)) / float64(time.Millisecond)
			e.RequestLog.Log(rec)
		}
	})
}
