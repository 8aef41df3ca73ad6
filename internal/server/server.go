// Package server implements the soid query-serving daemon: a long-running
// HTTP/JSON server that loads a graph, a prebuilt cascade index, and an
// optional sphere store once, then answers concurrent sphere / stability /
// seed-selection / spread / reliability / mode queries from memory.
//
// Each /v1 request runs the pipeline soid shares with soigw (daemon.Envelope):
//
//	mux → drain check → budget → cache lookup → singleflight → admission → compute
//
// with an LRU result cache keyed on (endpoint, canonicalized params but the
// budget, index fingerprint), deduplication of identical in-flight queries,
// a bounded admission queue that sheds load with 429 + Retry-After, and
// per-request wall-clock budgets mapped onto the checkpoint Budget
// machinery — a budget that truncates sampling yields HTTP 206 with the
// achieved sample count and a Theorem-2-style error bound instead of an
// error. Only admission and compute are soid's own.
//
// Degraded indexes get the same treatment: when the index load has
// quarantined corrupt world blocks, estimates cover only the surviving
// worlds, so index-backed endpoints answer 206 with worlds_used /
// worlds_quarantined and a Hoeffding bound re-derived at the live world
// count. An index that has lost every world answers 503 with a retryable
// code so the gateway fails over to a healthy replica.
//
// The index carries its graph and model: every sample is drawn under
// Index.Model.
package server

import (
	"context"
	"errors"
	"fmt"
	"net/http"
	"runtime"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"soi/internal/api"
	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/sketch"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Config assembles a Server. Index is required; everything else has
// serving-sensible defaults.
type Config struct {
	// OrigIDs maps dense node ids to the original ids of the graph file;
	// nil means the two id spaces coincide. Requests and responses use
	// original ids.
	OrigIDs []int64
	// Index is the prebuilt cascade index (required), with its graph.
	Index *index.Index
	// Spheres is the optional precomputed sphere store (LoadSpheres output);
	// it enables /v1/seeds and the /v1/sphere store fast path. Must have one
	// entry per graph node.
	Spheres []core.Result
	// Sketch is the optional combined bottom-k reachability sketch built
	// over Index; it enables estimator=sketch on /v1/{spread,sphere,seeds}.
	// Must be fingerprint-keyed to Index.
	Sketch *sketch.Sketch
	// Telemetry receives request counters, per-endpoint latency histograms,
	// cache and admission metrics, and, through the request context, the
	// metrics of the ctx-first estimators (Monte-Carlo spread, InfMax_TC);
	// nil disables instrumentation. The context-free queries meter into
	// the registry attached to Index and Sketch (their SetTelemetry).
	Telemetry *telemetry.Registry
	// Tracer records per-request span trees (root-or-continued via the
	// incoming traceparent header) with tail-based retention, served on
	// /debug/traces; nil disables tracing at one nil check per event.
	Tracer *trace.Tracer
	// RequestLog receives one structured JSONL line per /v1 request; nil
	// disables request logging.
	RequestLog *trace.RequestLog

	// MaxInflight bounds concurrently computing requests; 0 selects
	// GOMAXPROCS.
	MaxInflight int
	// MaxQueue bounds requests waiting for a compute slot beyond
	// MaxInflight; 0 selects 4*MaxInflight, negative disables queueing
	// (immediate 429 when all slots are busy).
	MaxQueue int
	// CostSamples is the default held-out sample count for stability
	// estimates; 0 selects 200.
	CostSamples int
	// Trials is the default Monte-Carlo trial count for /v1/spread
	// method=mc; 0 selects 1000.
	Trials int
	// Seed seeds server-side sampling (stability, spread, reliability).
	// Fixed per process so identical queries are deterministic and cacheable.
	Seed uint64
}

func (c Config) maxInflight() int {
	if c.MaxInflight > 0 {
		return c.MaxInflight
	}
	return runtime.GOMAXPROCS(0)
}

func (c Config) maxQueue() int {
	if c.MaxQueue == 0 {
		return 4 * c.maxInflight()
	}
	if c.MaxQueue < 0 {
		return 0
	}
	return c.MaxQueue
}

func (c Config) costSamples() int {
	if c.CostSamples <= 0 {
		return 200
	}
	return c.CostSamples
}

func (c Config) trials() int {
	if c.Trials <= 0 {
		return 1000
	}
	return c.Trials
}

// Server is the query-serving daemon core: immutable loaded artifacts plus
// the serving pipeline (cache, singleflight, admission). All methods are
// safe for concurrent use.
type Server struct {
	cfg     Config
	x       *index.Index
	tcSets  infmax.Spheres         // extracted sphere sets for /v1/seeds
	denseOf map[int64]graph.NodeID // original -> dense; nil = identity

	fpHex string // cache-key suffix binding entries to the loaded index
	// quarEps is the [0,1] Hoeffding ε at the live world count, derived
	// once: quarantine happens at load, so the count is fixed (0 when no
	// world is quarantined or none is live).
	quarEps float64

	adm     *admission
	scratch sync.Pool // *index.Scratch

	mux      *http.ServeMux
	env      *daemon.Envelope
	draining atomic.Bool
	started  time.Time

	mRejected *telemetry.Counter
	mErrors   *telemetry.Counter
	mSketch   *telemetry.Counter
}

// New validates that the configured index / sphere-store / sketch triple
// belongs together and assembles the serving pipeline. Mismatches are
// startup errors, not per-request surprises.
func New(cfg Config) (*Server, error) {
	if cfg.Index == nil {
		return nil, errors.New("server: Config.Index is required")
	}
	g := cfg.Index.Graph()
	if cfg.Spheres != nil && len(cfg.Spheres) != g.NumNodes() {
		return nil, fmt.Errorf("server: sphere store has %d spheres for a graph of %d nodes (graph fingerprint %016x) — was it computed for a different graph?",
			len(cfg.Spheres), g.NumNodes(), cfg.Index.GraphFingerprint())
	}
	if cfg.OrigIDs != nil && len(cfg.OrigIDs) != g.NumNodes() {
		return nil, fmt.Errorf("server: %d original ids for %d nodes", len(cfg.OrigIDs), g.NumNodes())
	}
	if cfg.Sketch != nil {
		// A sketch is meaningless against any index but the one it was built
		// from: estimates would silently describe other worlds. Refuse at
		// startup, the same way a wrong-graph index is refused.
		if got, want := cfg.Sketch.IndexFingerprint(), cfg.Index.Fingerprint(); got != want {
			return nil, fmt.Errorf("server: sketch was built from a different index (sketch carries index fingerprint %016x, loaded index is %016x) — rebuild with sphere -sketch-out",
				got, want)
		}
		if cfg.Sketch.Nodes() != g.NumNodes() {
			return nil, fmt.Errorf("server: sketch covers %d nodes for a graph of %d", cfg.Sketch.Nodes(), g.NumNodes())
		}
	}

	tel := cfg.Telemetry
	s := &Server{
		cfg:     cfg,
		x:       cfg.Index,
		adm:     newAdmission(cfg.maxInflight(), cfg.maxQueue(), tel),
		started: time.Now(),

		mRejected: tel.Counter("server.rejected_overload"),
		mErrors:   tel.Counter("server.errors"),
		mSketch:   tel.Counter("server.sketch_estimates"),
	}
	s.fpHex = fmt.Sprintf("%016x", cfg.Index.Fingerprint())
	if live := cfg.Index.LiveWorlds(); cfg.Index.QuarantinedWorlds() > 0 && live > 0 {
		s.quarEps = bound.Hoeffding(live, bound.ServingDelta).Eps
	}
	if cfg.OrigIDs != nil {
		s.denseOf = make(map[int64]graph.NodeID, len(cfg.OrigIDs))
		for v, id := range cfg.OrigIDs {
			s.denseOf[id] = graph.NodeID(v)
		}
	}
	if cfg.Spheres != nil {
		s.tcSets = make(infmax.Spheres, len(cfg.Spheres))
		for v := range cfg.Spheres {
			s.tcSets[v] = cfg.Spheres[v].Set
		}
	}
	s.scratch.New = func() any { return s.x.NewScratch() }
	s.env = &daemon.Envelope{
		Service:    "soid",
		Metrics:    tel,
		Prefix:     "server",
		Tracer:     cfg.Tracer,
		RequestLog: cfg.RequestLog,
		Draining:   &s.draining,
		DrainMsg:   "server is draining",
		Fail:       s.mapError,
		Cache:      daemon.NewCache(daemon.DefaultCacheSize, tel, "server"),
		KeySuffix:  func() string { return s.fpHex },
		Overrun:    budgetGrace,
	}
	s.buildMux()
	return s, nil
}

// Handler returns the serving mux: the /v1 API, /healthz, /readyz and the
// debug surface (daemon.Debug) on the same mux.
func (s *Server) Handler() http.Handler { return s.mux }

func (s *Server) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", daemon.Healthz)
	mux.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		resp := api.Ready{
			Ready:            true,
			GraphFingerprint: fmt.Sprintf("%016x", s.x.GraphFingerprint()),
			IndexFingerprint: s.fpHex,
			SpheresLoaded:    s.cfg.Spheres != nil,
			SketchLoaded:     s.cfg.Sketch != nil,
		}
		status := http.StatusOK
		if s.draining.Load() {
			resp.Ready = false
			resp.Reason = "draining"
			status = http.StatusServiceUnavailable
		}
		api.WriteJSON(w, status, resp)
	})
	mux.Handle("GET /v1/info", s.endpoint("info", false, s.handleInfo))
	mux.Handle("GET /v1/sphere/{node}", s.endpoint("sphere", true, s.handleSphere))
	mux.Handle("GET /v1/stability", s.endpoint("stability", true, s.handleStability))
	mux.Handle("GET /v1/seeds", s.endpoint("seeds", true, s.handleSeeds))
	mux.Handle("GET /v1/spread", s.endpoint("spread", true, s.handleSpread))
	mux.Handle("GET /v1/reliability", s.endpoint("reliability", true, s.handleReliability))
	mux.Handle("GET /v1/modes/{node}", s.endpoint("modes", true, s.handleModes))
	daemon.Debug(mux, s.cfg.Telemetry, s.cfg.Tracer)
	s.mux = mux
}

// Drain flips the drain flag: new /v1 requests are refused with 503
// "draining" and /readyz goes not-ready, while requests already admitted run
// to completion. The listener serving Handler drains its connections itself
// (daemon.Gate.Shutdown).
func (s *Server) Drain() { s.draining.Store(true) }

// budgetGrace puts the hard context deadline past the request budget: the
// Budget machinery degrades sampling gracefully at the budget instant, while
// the context kills runaway non-sampling work (greedy rounds, marshaling)
// only well past it. Without the gap, a tiny budget would hit ctx.Err()
// before the first sample and turn every 206 into a 503.
const budgetGrace = 5 * time.Second

// endpoint puts a handler under the shared pipeline with soid's compute:
// admission, the compute failpoint, the "compute" span, the handler, and
// encoding its answer once.
func (s *Server) endpoint(name string, cacheable bool, fn func(*http.Request) (any, error)) http.Handler {
	return s.env.Endpoint(name, cacheable, func(req *http.Request) (*daemon.Answer, error) {
		wspan := trace.Child(req.Context(), "admission.wait")
		err := s.adm.acquire(req.Context())
		wspan.End()
		if err != nil {
			return nil, err
		}
		defer s.adm.release()
		if err := fault.Hit(fault.ServerCompute); err != nil {
			return nil, err
		}
		cctx, cspan := trace.StartChild(req.Context(), "compute")
		v, err := fn(req.WithContext(cctx))
		if err != nil {
			cspan.SetError(err.Error())
			cspan.End()
			return nil, err
		}
		cspan.SetHTTPStatus(api.StatusOf(api.AnnotationOf(v).Degraded))
		cspan.End()
		return daemon.Encode(v)
	})
}

// mapError maps err onto the /v1 error envelope the daemon envelope writes,
// counting every error but a 429 in server.errors.
func (s *Server) mapError(err error) *api.Error {
	var ae *api.Error
	switch {
	case errors.As(err, &ae):
		// Raised by a handler, a request parser or the envelope: written as is.
	case errors.Is(err, errOverload):
		s.mRejected.Inc()
		ae = &api.Error{Status: http.StatusTooManyRequests, Code: api.CodeOverloaded, Msg: err.Error(), RetryAfter: time.Second}
	case errors.Is(err, context.DeadlineExceeded), errors.Is(err, checkpoint.ErrDeadline):
		ae = &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeBudget,
			Msg: "request budget too small to produce a result; retry with a larger budget", RetryAfter: time.Second}
	case errors.Is(err, context.Canceled):
		// Client went away; status code is a formality.
		ae = &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeCanceled, Msg: "request canceled"}
	default:
		ae = &api.Error{Status: http.StatusInternalServerError, Code: api.CodeInternal, Msg: err.Error()}
	}
	if ae.Status != http.StatusTooManyRequests {
		s.mErrors.Inc()
	}
	return ae
}

// --- id translation -------------------------------------------------------

func (s *Server) orig(v graph.NodeID) int64 {
	if s.cfg.OrigIDs == nil {
		return int64(v)
	}
	return s.cfg.OrigIDs[v]
}

func (s *Server) origSlice(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = s.orig(v)
	}
	return out
}

func (s *Server) dense(id int64) (graph.NodeID, bool) {
	if s.denseOf != nil {
		v, ok := s.denseOf[id]
		return v, ok
	}
	if id < 0 || id >= int64(s.x.Graph().NumNodes()) {
		return 0, false
	}
	return graph.NodeID(id), true
}

func (s *Server) pathNode(req *http.Request) (graph.NodeID, error) {
	id, err := api.Node(req.PathValue("node"))
	if err != nil {
		return 0, err
	}
	v, ok := s.dense(id)
	if !ok {
		return 0, api.NotFound("unknown node %d", id)
	}
	return v, nil
}

// queryNodes parses a comma-separated list of original node ids into dense
// ids.
func (s *Server) queryNodes(req *http.Request, param string) ([]graph.NodeID, error) {
	ids, err := api.IDs(req.URL.Query(), param)
	if err != nil {
		return nil, err
	}
	out := make([]graph.NodeID, len(ids))
	for i, id := range ids {
		v, ok := s.dense(id)
		if !ok {
			return nil, api.NotFound("unknown node %d", id)
		}
		out[i] = v
	}
	return out, nil
}

func queryInt(req *http.Request, param string, def int) (int, error) {
	raw := req.URL.Query().Get(param)
	if raw == "" {
		return def, nil
	}
	n, err := strconv.Atoi(raw)
	if err != nil {
		return 0, api.BadRequest("bad %s %q", param, raw)
	}
	return n, nil
}
