// Package telemetry is the observability substrate for every long-running
// pipeline in this repository: a race-safe metrics registry (counters,
// gauges, log-scale histograms) and an end-of-run structured report. Phase
// timing lives in internal/trace; the batch CLIs copy their trace into the
// report's span tree (see cliutil). It depends only on the standard library.
//
// A registry reaches a computation the way a trace span does: through the
// context.Context of a ctx-first call (NewContext, FromContext). Calls that
// take no context read the registry of the artifact they query instead (an
// index or a sketch, see their SetTelemetry).
//
// The design is built around one invariant: a disabled registry must cost
// (almost) nothing on the hot path. Every handle type (*Counter, *Gauge,
// *Histogram) is nil-safe — calling any method on a nil handle is a
// no-op — and a nil *Registry hands out nil handles. Instrumented code
// therefore resolves its handles once up front and never branches on
// "telemetry enabled?" again; the disabled cost is a nil check per update.
//
// On the enabled path all updates are single atomic operations; the
// registry mutex is taken only at handle registration and at snapshot time,
// never per update. Hot loops (per-edge coin flips, per-trial cascades)
// should still accumulate locally and publish once per unit of work — see
// worlds.Metrics for the pattern.
package telemetry

import (
	"context"
	"math/bits"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// Counter is a monotonically increasing metric. The zero value is ready to
// use; a nil *Counter discards updates.
type Counter struct {
	v atomic.Int64
}

// Inc adds 1.
func (c *Counter) Inc() { c.Add(1) }

// Add adds n. Negative deltas are ignored so the counter stays monotone.
func (c *Counter) Add(n int64) {
	if c == nil || n <= 0 {
		return
	}
	c.v.Add(n)
}

// Value returns the current count. A nil counter reads as 0.
func (c *Counter) Value() int64 {
	if c == nil {
		return 0
	}
	return c.v.Load()
}

// Gauge is a metric that can go up and down (e.g. tasks currently active).
// The zero value is ready to use; a nil *Gauge discards updates.
type Gauge struct {
	v atomic.Int64
}

// Set replaces the gauge value.
func (g *Gauge) Set(n int64) {
	if g == nil {
		return
	}
	g.v.Store(n)
}

// Add adjusts the gauge by n (n may be negative).
func (g *Gauge) Add(n int64) {
	if g == nil {
		return
	}
	g.v.Add(n)
}

// Value returns the current value. A nil gauge reads as 0.
func (g *Gauge) Value() int64 {
	if g == nil {
		return 0
	}
	return g.v.Load()
}

// histBuckets is the number of log2 buckets: bucket i holds observations v
// with bits.Len64(v) == i, i.e. v in [2^(i-1), 2^i). Bucket 0 holds v <= 0.
// 65 buckets cover the full non-negative int64 range.
const histBuckets = 65

// Histogram records an int64 distribution in fixed power-of-two buckets.
// Observe is a bucket-index computation plus two atomic adds; there is no
// lock and no allocation. A nil *Histogram discards observations.
type Histogram struct {
	count   atomic.Int64
	sum     atomic.Int64
	buckets [histBuckets]atomic.Int64

	// Exemplars link the aggregate distribution back to individual traces:
	// the most recent exemplar-carrying observation and the largest one seen
	// (the worst request so far — the one an operator wants to pull up in
	// /debug/traces/{id}).
	exLast atomic.Pointer[Exemplar]
	exMax  atomic.Pointer[Exemplar]
}

// Exemplar ties one observed value to the trace that produced it, so a
// latency histogram's tail is one copy-paste away from the full span tree.
type Exemplar struct {
	Value   int64  `json:"value"`
	TraceID string `json:"trace_id"`
}

// Observe records one value. Values <= 0 land in the first bucket.
func (h *Histogram) Observe(v int64) {
	if h == nil {
		return
	}
	h.count.Add(1)
	h.sum.Add(v)
	i := 0
	if v > 0 {
		i = bits.Len64(uint64(v))
	}
	h.buckets[i].Add(1)
}

// ObserveExemplar records one value and, when traceID is non-empty, attaches
// it as an exemplar: it becomes the "last" exemplar unconditionally and the
// "max" exemplar if it exceeds the current maximum. Lock-free.
func (h *Histogram) ObserveExemplar(v int64, traceID string) {
	if h == nil {
		return
	}
	h.Observe(v)
	if traceID == "" {
		return
	}
	ex := &Exemplar{Value: v, TraceID: traceID}
	h.exLast.Store(ex)
	for {
		cur := h.exMax.Load()
		if cur != nil && cur.Value >= v {
			return
		}
		if h.exMax.CompareAndSwap(cur, ex) {
			return
		}
	}
}

// Bucket is one non-empty histogram bucket: Count observations were <= Le
// (and greater than the previous bucket's Le). Counts are per-bucket, not
// cumulative; the Prometheus renderer accumulates them.
type Bucket struct {
	Le    int64 `json:"le"` // inclusive upper bound: 2^i - 1
	Count int64 `json:"count"`
}

// HistogramSnapshot is a point-in-time copy of a histogram. P50/P90/P99 are
// quantile estimates derived from the log2 buckets (linear interpolation
// within the matching bucket), so reports carry ready-made quantiles instead
// of requiring readers to reconstruct them from bucket counts.
type HistogramSnapshot struct {
	Count   int64    `json:"count"`
	Sum     int64    `json:"sum"`
	Mean    float64  `json:"mean"`
	P50     float64  `json:"p50,omitempty"`
	P90     float64  `json:"p90,omitempty"`
	P99     float64  `json:"p99,omitempty"`
	Buckets []Bucket `json:"buckets,omitempty"` // non-empty buckets, ascending Le
	// ExemplarLast / ExemplarMax tie the distribution to concrete traces:
	// the most recent and the largest exemplar-carrying observations.
	ExemplarLast *Exemplar `json:"exemplar_last,omitempty"`
	ExemplarMax  *Exemplar `json:"exemplar_max,omitempty"`
}

// Quantile estimates the q-quantile (q in [0,1]) from the bucket counts:
// the matching log2 bucket is found by cumulative rank and the value is
// linearly interpolated across its [2^(i-1), 2^i - 1] range. The estimate is
// exact at bucket boundaries and within a factor of 2 inside a bucket —
// the resolution the log2 layout buys.
func (s HistogramSnapshot) Quantile(q float64) float64 {
	if s.Count <= 0 || len(s.Buckets) == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	rank := q * float64(s.Count)
	var cum int64
	for _, b := range s.Buckets {
		prev := float64(cum)
		cum += b.Count
		if float64(cum) >= rank {
			// Bucket with Le = 2^i - 1 holds v in [2^(i-1), 2^i - 1]; the
			// first bucket (Le 0) holds v <= 0.
			lo := float64(0)
			if b.Le > 0 {
				lo = float64(b.Le+1) / 2
			}
			hi := float64(b.Le)
			if hi < lo {
				hi = lo
			}
			frac := 0.0
			if b.Count > 0 {
				frac = (rank - prev) / float64(b.Count)
			}
			return lo + frac*(hi-lo)
		}
	}
	return float64(s.Buckets[len(s.Buckets)-1].Le)
}

// Snapshot copies the histogram's current state. Concurrent Observe calls
// may tear count/sum/buckets slightly relative to each other; each value is
// individually consistent.
func (h *Histogram) Snapshot() HistogramSnapshot {
	if h == nil {
		return HistogramSnapshot{}
	}
	s := HistogramSnapshot{Count: h.count.Load(), Sum: h.sum.Load()}
	if s.Count > 0 {
		s.Mean = float64(s.Sum) / float64(s.Count)
	}
	for i := 0; i < histBuckets; i++ {
		n := h.buckets[i].Load()
		if n == 0 {
			continue
		}
		le := int64(1)<<uint(i) - 1 // bucket i holds v with Len64(v)==i, so v <= 2^i - 1
		if i >= 63 {
			le = 1<<63 - 1
		}
		s.Buckets = append(s.Buckets, Bucket{Le: le, Count: n})
	}
	if s.Count > 0 {
		s.P50 = s.Quantile(0.50)
		s.P90 = s.Quantile(0.90)
		s.P99 = s.Quantile(0.99)
	}
	s.ExemplarLast = h.exLast.Load()
	s.ExemplarMax = h.exMax.Load()
	return s
}

// Registry owns a run's metrics and run-info block. Create one per
// process run with New; a nil *Registry is a valid "telemetry disabled"
// registry whose handle constructors return nil handles.
type Registry struct {
	start time.Time

	mu       sync.Mutex
	counters map[string]*Counter
	gauges   map[string]*Gauge
	hists    map[string]*Histogram
	info     runInfo
}

type runInfo struct {
	tool      string
	graphHash uint64
	hasHash   bool
	seed      uint64
	hasSeed   bool
	samples   int64
	params    map[string]string
}

// New returns an enabled registry with its wall clock started.
func New() *Registry {
	return &Registry{
		start:    time.Now(),
		counters: make(map[string]*Counter),
		gauges:   make(map[string]*Gauge),
		hists:    make(map[string]*Histogram),
	}
}

// Counter returns the counter registered under name, creating it on first
// use. Names are dotted paths ("pool.tasks_done"); the Prometheus renderer
// maps them to soi_pool_tasks_done_total. Returns nil on a nil registry.
func (r *Registry) Counter(name string) *Counter {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	c, ok := r.counters[name]
	if !ok {
		c = &Counter{}
		r.counters[name] = c
	}
	return c
}

// Gauge returns the gauge registered under name, creating it on first use.
// Returns nil on a nil registry.
func (r *Registry) Gauge(name string) *Gauge {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	g, ok := r.gauges[name]
	if !ok {
		g = &Gauge{}
		r.gauges[name] = g
	}
	return g
}

// Histogram returns the histogram registered under name, creating it on
// first use. Returns nil on a nil registry.
func (r *Registry) Histogram(name string) *Histogram {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	h, ok := r.hists[name]
	if !ok {
		h = &Histogram{}
		r.hists[name] = h
	}
	return h
}

// SetTool records the CLI name for the report's RunInfo block.
func (r *Registry) SetTool(tool string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.info.tool = tool
	r.mu.Unlock()
}

// SetGraphHash records the input graph's content hash (checkpoint.Hasher
// fingerprint) so reports from different machines are comparable.
func (r *Registry) SetGraphHash(h uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.info.graphHash = h
	r.info.hasHash = true
	r.mu.Unlock()
}

// SetSeed records the run's master RNG seed.
func (r *Registry) SetSeed(seed uint64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.info.seed = seed
	r.info.hasSeed = true
	r.mu.Unlock()
}

// SetSamplesAchieved records the number of possible worlds actually
// materialized (may be below the request under a deadline budget).
func (r *Registry) SetSamplesAchieved(n int64) {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.info.samples = n
	r.mu.Unlock()
}

// SetParam records one run parameter (flag value) for the report.
func (r *Registry) SetParam(key, value string) {
	if r == nil {
		return
	}
	r.mu.Lock()
	if r.info.params == nil {
		r.info.params = make(map[string]string)
	}
	r.info.params[key] = value
	r.mu.Unlock()
}

type ctxKey struct{}

// NewContext returns ctx carrying r; a nil r hides any registry ctx carried,
// so the calls under it record nothing.
func NewContext(ctx context.Context, r *Registry) context.Context {
	return context.WithValue(ctx, ctxKey{}, r)
}

// FromContext returns the registry carried by ctx, or nil (disabled).
func FromContext(ctx context.Context) *Registry {
	r, _ := ctx.Value(ctxKey{}).(*Registry)
	return r
}

// sortedNames returns m's keys in ascending order.
func sortedNames[V any](m map[string]V) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
