package server

import (
	"errors"
	"net/http"
	"strconv"
	"time"

	"soi/internal/api"
	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/reliability"
	"soi/internal/trace"
)

// splitPartial separates budget truncation (a degraded success) from real
// failures: (pe, nil) when err is a *checkpoint.PartialError, (nil, err)
// otherwise.
func splitPartial(err error) (*checkpoint.PartialError, error) {
	if err == nil {
		return nil, nil
	}
	var pe *checkpoint.PartialError
	if errors.As(err, &pe) {
		return pe, nil
	}
	return nil, err
}

// partialOf annotates a budget-truncated answer: how much sampling completed
// before the deadline and the error bound at that count, scaled to the
// estimate's units. A nil pe (sampling finished) annotates nothing.
func partialOf(pe *checkpoint.PartialError, scale float64) api.Partial {
	if pe == nil {
		return api.Partial{}
	}
	return api.Partial{
		Degraded:   true,
		Achieved:   pe.Achieved,
		Requested:  pe.Requested,
		ErrorBound: pe.Bound * scale,
	}
}

// mergePartial combines a budget-truncation annotation with a
// quarantine-degradation annotation: either alone makes the response
// partial, and their additive error bounds sum.
func mergePartial(budget, quarantine api.Partial) api.Partial {
	out := budget
	out.Degraded = budget.Degraded || quarantine.Degraded
	out.ErrorBound = budget.ErrorBound + quarantine.ErrorBound
	out.WorldsUsed = quarantine.WorldsUsed
	out.WorldsQuarantined = quarantine.WorldsQuarantined
	return out
}

// quarantinePartial annotates answers computed over a degraded index, one
// whose load quarantined corrupt world blocks. With q of ℓ worlds
// quarantined the estimate is an average over the ℓ-q survivors, so the
// Hoeffding bound is re-derived at the live count (bound.Hoeffding at
// bound.ServingDelta, once, in New) and scaled to the estimate's units —
// exactly how budget truncation is surfaced, and the two compose by
// summing bounds (mergePartial). An index
// that has lost every world cannot answer at all: that is a retryable 503
// (CodeDegraded) so the gateway fails over to a replica with a healthy copy.
//
// 206 responses are never cached, so degraded answers always recompute.
func (s *Server) quarantinePartial(scale float64) (api.Partial, error) {
	quar := s.x.QuarantinedWorlds()
	if quar == 0 {
		return api.Partial{}, nil
	}
	live := s.x.LiveWorlds()
	if live == 0 {
		return api.Partial{}, &api.Error{
			Status: http.StatusServiceUnavailable,
			Code:   api.CodeDegraded,
			Msg:    "index degraded: every world block is quarantined; repair the file with soifsck",
			// Retryable 503s carry Retry-After so the gateway's backoff
			// honoring applies before it fails over to a replica.
			RetryAfter: time.Second,
		}
	}
	return api.Partial{
		Degraded:          true,
		WorldsUsed:        live,
		WorldsQuarantined: quar,
		ErrorBound:        s.quarEps * scale,
	}, nil
}

// queryEstimator parses the estimator parameter shared by /v1/spread,
// /v1/sphere, and /v1/seeds: "" and "dense" select the dense per-world
// estimators, "sketch" the loaded combined bottom-k sketch (a 409 conflict
// when none is loaded, matching the sphere-store contract).
func (s *Server) queryEstimator(req *http.Request) (string, error) {
	est := req.URL.Query().Get("estimator")
	switch est {
	case "", "dense":
		return "", nil
	case "sketch":
		if s.cfg.Sketch == nil {
			return "", api.Conflict("no sketch loaded; estimator=sketch requires soid -sketch")
		}
		return "sketch", nil
	default:
		return "", api.BadRequest("bad estimator %q: want dense or sketch", est)
	}
}

// querySeed derives the sampling seed for a request from the server seed and
// the queried nodes, so distinct queries draw independent streams while the
// same query is reproducible (and therefore cacheable) across requests.
func (s *Server) querySeed(vs ...graph.NodeID) uint64 {
	h := checkpoint.NewHasher().Uint64(s.cfg.Seed)
	h.Nodes(vs)
	return h.Sum()
}

// handleSphere serves GET /v1/sphere/{node}: the node's typical cascade with
// an optional held-out stability estimate. source=store returns the
// precomputed sphere from the loaded store; source=compute derives it from
// the index under the request budget; source=auto (default) prefers the
// store.
func (s *Server) handleSphere(req *http.Request) (any, error) {
	v, err := s.pathNode(req)
	if err != nil {
		return nil, err
	}
	est, err := s.queryEstimator(req)
	if err != nil {
		return nil, err
	}
	if est == "sketch" {
		ssp := trace.Child(req.Context(), "sphere.sketch")
		size := s.cfg.Sketch.EstimateSphereSize(v)
		ssp.End()
		s.mSketch.Inc()
		resp := api.Sphere{
			Node:          s.orig(v),
			Sphere:        []int64{}, // the sketch estimates magnitude, not membership
			Source:        "sketch",
			Estimator:     "sketch",
			EstimatedSize: size,
		}
		resp.ErrorBound = s.cfg.Sketch.ErrorBound(size)
		return resp, nil
	}
	source := req.URL.Query().Get("source")
	switch source {
	case "", "auto":
		if s.cfg.Spheres != nil {
			source = "store"
		} else {
			source = "compute"
		}
	case "store":
		if s.cfg.Spheres == nil {
			return nil, api.Conflict("no sphere store loaded; start soid with -spheres or use source=compute")
		}
	case "compute":
	default:
		return nil, api.BadRequest("bad source %q: want auto, store, or compute", source)
	}

	if source == "store" {
		r := &s.cfg.Spheres[v]
		resp := api.Sphere{
			Node:       s.orig(v),
			Sphere:     s.origSlice(r.Set),
			Size:       r.Size(),
			SampleCost: r.SampleCost,
			Source:     "store",
		}
		if r.ExpectedCost >= 0 {
			stab := r.ExpectedCost
			resp.Stability = &stab
		}
		return resp, nil
	}

	samples, err := queryInt(req, "samples", s.cfg.costSamples())
	if err != nil {
		return nil, err
	}
	if samples < 0 {
		return nil, api.BadRequest("samples must be >= 0, got %d", samples)
	}

	csp := trace.Child(req.Context(), "sphere.compute")
	sc := s.scratch.Get().(*index.Scratch)
	r := core.ComputeWithScratch(s.x, v, core.Options{}, sc)
	s.scratch.Put(sc)
	csp.End()
	qp, err := s.quarantinePartial(1) // sample cost is a [0,1] Jaccard average
	if err != nil {
		return nil, err
	}

	resp := api.Sphere{
		Node:       s.orig(v),
		Sphere:     s.origSlice(r.Set),
		Size:       r.Size(),
		SampleCost: r.SampleCost,
		Source:     "computed",
	}
	if samples > 0 {
		ectx, esp := trace.StartChild(req.Context(), "stability.estimate",
			trace.Int("samples", int64(samples)))
		stab, achieved, err := core.EstimateCost(ectx, s.x.Graph(),
			[]graph.NodeID{v}, r.Set, samples, s.querySeed(v), s.x.Model(),
			checkpoint.Budget{Deadline: daemon.BudgetOf(ectx).Deadline}, nil)
		esp.SetAttrs(trace.Int("achieved", int64(achieved)))
		esp.End()
		pe, err := splitPartial(err)
		if err != nil {
			return nil, err
		}
		resp.Stability = &stab
		resp.StabilitySamples = achieved
		resp.Partial = mergePartial(partialOf(pe, 1), qp) // Jaccard distance: bound already in [0,1]
		return resp, nil
	}
	resp.Partial = qp
	return resp, nil
}

// handleStability serves GET /v1/stability?seeds=...: the typical cascade of
// a seed set together with its held-out stability ρ under the request
// budget.
func (s *Server) handleStability(req *http.Request) (any, error) {
	seeds, err := s.queryNodes(req, "seeds")
	if err != nil {
		return nil, err
	}
	samples, err := queryInt(req, "samples", s.cfg.costSamples())
	if err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, api.BadRequest("samples must be >= 1, got %d", samples)
	}

	csp := trace.Child(req.Context(), "sphere.compute")
	r := core.ComputeFromSet(s.x, seeds, core.Options{})
	csp.End()
	qp, err := s.quarantinePartial(1)
	if err != nil {
		return nil, err
	}
	ectx, esp := trace.StartChild(req.Context(), "stability.estimate",
		trace.Int("samples", int64(samples)))
	stab, achieved, err := core.EstimateCost(ectx, s.x.Graph(),
		seeds, r.Set, samples, s.querySeed(seeds...), s.x.Model(),
		checkpoint.Budget{Deadline: daemon.BudgetOf(ectx).Deadline}, nil)
	esp.SetAttrs(trace.Int("achieved", int64(achieved)))
	esp.End()
	pe, err := splitPartial(err)
	if err != nil {
		return nil, err
	}
	return api.Stability{
		Seeds:      s.origSlice(seeds),
		Set:        s.origSlice(r.Set),
		Size:       r.Size(),
		SampleCost: r.SampleCost,
		Stability:  stab,
		Samples:    achieved,
		Partial:    mergePartial(partialOf(pe, 1), qp),
	}, nil
}

// handleSeeds serves GET /v1/seeds?k=...: InfMax_TC greedy max-cover over
// the loaded sphere store. This endpoint has no sampling to degrade, so the
// budget (plus grace) acts as a hard timeout instead.
func (s *Server) handleSeeds(req *http.Request) (any, error) {
	est, err := s.queryEstimator(req)
	if err != nil {
		return nil, err
	}
	k, err := queryInt(req, "k", 0)
	if err != nil {
		return nil, err
	}
	if k < 1 || k > s.x.Graph().NumNodes() {
		return nil, api.BadRequest("k must be in [1, %d], got %d", s.x.Graph().NumNodes(), k)
	}
	if est == "sketch" {
		gsp := trace.Child(req.Context(), "seeds.sketch_greedy", trace.Int("k", int64(k)))
		sel, err := infmax.SelectSeedsSketch(s.cfg.Sketch, k)
		gsp.End()
		if err != nil {
			return nil, err
		}
		s.mSketch.Inc()
		obj := sel.Objective()
		return api.Seeds{
			K:               k,
			Seeds:           s.origSlice(sel.Seeds),
			Gains:           sel.Gains,
			Objective:       obj, // expected-spread units, unlike the TC cover
			Coverage:        obj / float64(s.x.Graph().NumNodes()),
			LazyEvaluations: sel.LazyEvaluations,
			Estimator:       "sketch",
			Partial:         api.Partial{ErrorBound: s.cfg.Sketch.ErrorBound(obj)},
		}, nil
	}
	if s.tcSets == nil {
		return nil, api.Conflict("no sphere store loaded; /v1/seeds requires soid -spheres")
	}
	sel, err := infmax.TC(req.Context(), s.x.Graph(), s.tcSets, k, infmax.TCOptions{})
	if err != nil {
		return nil, err
	}
	return api.Seeds{
		K:               k,
		Seeds:           s.origSlice(sel.Seeds),
		Gains:           sel.Gains,
		Objective:       sel.Objective(),
		Coverage:        sel.Objective() / float64(s.x.Graph().NumNodes()),
		LazyEvaluations: sel.LazyEvaluations,
	}, nil
}

// handleSpread serves GET /v1/spread?seeds=...: expected spread either over
// the loaded index's worlds (method=index, deterministic and fast) or by
// fresh IC Monte-Carlo simulation under the request budget (method=mc).
func (s *Server) handleSpread(req *http.Request) (any, error) {
	seeds, err := s.queryNodes(req, "seeds")
	if err != nil {
		return nil, err
	}
	est, err := s.queryEstimator(req)
	if err != nil {
		return nil, err
	}
	method := req.URL.Query().Get("method")
	if est == "sketch" {
		if method != "" && method != "index" {
			return nil, api.BadRequest("estimator=sketch answers over the index's worlds; method %q is not compatible", method)
		}
		ssp := trace.Child(req.Context(), "spread.sketch")
		spread := s.cfg.Sketch.EstimateSpread(seeds)
		ssp.End()
		s.mSketch.Inc()
		resp := api.Spread{
			Seeds:     s.origSlice(seeds),
			Spread:    spread,
			Method:    "index",
			Estimator: "sketch",
		}
		resp.ErrorBound = s.cfg.Sketch.ErrorBound(spread)
		return resp, nil
	}
	switch method {
	case "", "index":
		isp := trace.Child(req.Context(), "spread.index")
		sc := s.scratch.Get().(*index.Scratch)
		spread := cascade.SpreadFromIndex(s.x, seeds, sc)
		s.scratch.Put(sc)
		isp.End()
		// Spread is in node units, so the [0,1] Hoeffding bound scales by n.
		qp, err := s.quarantinePartial(float64(s.x.Graph().NumNodes()))
		if err != nil {
			return nil, err
		}
		return api.Spread{
			Seeds:   s.origSlice(seeds),
			Spread:  spread,
			Method:  "index",
			Partial: qp,
		}, nil
	case "mc":
		if m := s.x.Model(); m != index.IC { // the simulation is IC's
			return nil, api.Conflict("method=mc simulates IC only and this index was sampled under %s; use method=index", m)
		}
		trials, err := queryInt(req, "trials", s.cfg.trials())
		if err != nil {
			return nil, err
		}
		if trials < 1 {
			return nil, api.BadRequest("trials must be >= 1, got %d", trials)
		}
		// One worker per request: admission control arbitrates cores across
		// requests; a single query must not monopolize the process.
		spread, err := cascade.ExpectedSpread(req.Context(), s.x.Graph(), seeds,
			trials, s.querySeed(seeds...), 1,
			checkpoint.Config{Budget: checkpoint.Budget{Deadline: daemon.BudgetOf(req.Context()).Deadline}})
		pe, err := splitPartial(err)
		if err != nil {
			return nil, err
		}
		return api.Spread{
			Seeds:  s.origSlice(seeds),
			Spread: spread,
			Method: "mc",
			Trials: trials,
			// The estimator's bound is normalized to [0,1]; spread is in
			// node units, so scale by n.
			Partial: partialOf(pe, float64(s.x.Graph().NumNodes())),
		}, nil
	default:
		return nil, api.BadRequest("bad method %q: want index or mc", method)
	}
}

// handleReliability serves GET /v1/reliability?sources=...&threshold=...:
// the nodes reachable from the sources with probability at least threshold,
// estimated by IC sampling under the request budget.
func (s *Server) handleReliability(req *http.Request) (any, error) {
	if m := s.x.Model(); m != index.IC { // the search samples IC worlds
		return nil, api.Conflict("/v1/reliability simulates IC only and this index was sampled under %s", m)
	}
	sources, err := s.queryNodes(req, "sources")
	if err != nil {
		return nil, err
	}
	threshold, err := api.Threshold(req.URL.Query())
	if err != nil {
		return nil, err
	}
	samples, err := queryInt(req, "samples", s.cfg.trials())
	if err != nil {
		return nil, err
	}
	if samples < 1 {
		return nil, api.BadRequest("samples must be >= 1, got %d", samples)
	}

	rctx, rsp := trace.StartChild(req.Context(), "reliability.search",
		trace.Int("samples", int64(samples)))
	nodes, achieved, err := reliability.Search(rctx, s.x.Graph(), sources,
		threshold, samples, s.querySeed(sources...), checkpoint.Budget{Deadline: daemon.BudgetOf(rctx).Deadline})
	rsp.SetAttrs(trace.Int("achieved", int64(achieved)))
	rsp.End()
	pe, err := splitPartial(err)
	if err != nil {
		return nil, err
	}
	return api.Reliability{
		Sources:   s.origSlice(sources),
		Threshold: threshold,
		Nodes:     s.origSlice(nodes),
		Count:     len(nodes),
		Samples:   achieved,
		Partial:   partialOf(pe, 1),
	}, nil
}

// handleModes serves GET /v1/modes/{node}?k=...: the k-mode cascade
// decomposition of a node with its takeoff probability.
func (s *Server) handleModes(req *http.Request) (any, error) {
	v, err := s.pathNode(req)
	if err != nil {
		return nil, err
	}
	k, err := queryInt(req, "k", 2)
	if err != nil {
		return nil, err
	}
	if k < 1 {
		return nil, api.BadRequest("k must be >= 1, got %d", k)
	}
	msp := trace.Child(req.Context(), "modes.analyze", trace.Int("k", int64(k)))
	modes := core.AnalyzeModes(s.x, v, k)
	msp.End()
	qp, err := s.quarantinePartial(1) // mode probabilities are [0,1] world fractions
	if err != nil {
		return nil, err
	}
	out := make([]api.Mode, len(modes))
	for i, m := range modes {
		out[i] = api.Mode{
			Median:      s.origSlice(m.Median),
			Size:        len(m.Median),
			Probability: m.Probability,
			Cost:        m.Cost,
		}
	}
	return api.Modes{
		Node:               s.orig(v),
		K:                  k,
		Modes:              out,
		TakeoffProbability: core.TakeoffProbability(modes),
		Partial:            qp,
	}, nil
}

// handleInfo serves GET /v1/info: the loaded artifacts and their
// fingerprints, so clients can validate they are talking to the dataset they
// expect.
func (s *Server) handleInfo(*http.Request) (any, error) {
	return api.Info{
		Nodes:             s.x.Graph().NumNodes(),
		Edges:             s.x.Graph().NumEdges(),
		Worlds:            s.x.NumWorlds(),
		WorldsQuarantined: s.x.QuarantinedWorlds(),
		GraphFingerprint:  strconv.FormatUint(s.x.GraphFingerprint(), 16),
		IndexFingerprint:  strconv.FormatUint(s.x.Fingerprint(), 16),
		SpheresLoaded:     s.cfg.Spheres != nil,
		SketchLoaded:      s.cfg.Sketch != nil,
		CacheEntries:      s.env.Cache.Len(),
		UptimeSeconds:     int64(time.Since(s.started).Seconds()),
	}, nil
}
