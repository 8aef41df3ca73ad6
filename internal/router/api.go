package router

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net/http"
	"net/url"
	"sort"
	"strconv"
	"strings"
	"time"

	"soi/internal/api"
	"soi/internal/daemon"
)

// Handler returns the gateway mux.
func (r *Router) Handler() http.Handler { return r.mux }

func (r *Router) buildMux() {
	mux := http.NewServeMux()
	mux.HandleFunc("GET /healthz", daemon.Healthz)
	mux.HandleFunc("GET /readyz", r.handleReadyz)
	mux.Handle("GET /v1/info", r.env.Endpoint("info", false, r.handleInfo))
	mux.HandleFunc("GET /v1/topology", r.handleTopology)
	mux.Handle("GET /v1/sphere/{node}", r.env.Endpoint("sphere", true, r.handleSphere))
	mux.Handle("GET /v1/modes/{node}", r.env.Endpoint("modes", true, r.handleModes))
	mux.Handle("GET /v1/stability", r.env.Endpoint("stability", true, r.handleStability))
	mux.Handle("GET /v1/seeds", r.env.Endpoint("seeds", true, r.handleSeeds))
	mux.Handle("GET /v1/spread", r.env.Endpoint("spread", true, r.handleSpread))
	mux.Handle("GET /v1/reliability", r.env.Endpoint("reliability", true, r.handleReliability))
	daemon.Debug(mux, r.cfg.Telemetry, r.cfg.Tracer)
	r.mux = mux
}

// Drain flips the drain flag (new requests get 503 code "draining", /readyz
// goes not-ready) and stops the probers; in-flight scatters finish. The
// listener serving Handler drains its connections itself
// (daemon.Gate.Shutdown).
func (r *Router) Drain() {
	r.draining.Store(true)
	r.Close()
}

func (r *Router) handleReadyz(w http.ResponseWriter, _ *http.Request) {
	resp := api.Ready{Ready: true}
	var unready []string
	for s, group := range r.shards {
		n := 0
		for _, rep := range group {
			if rep.healthy.Load() {
				n++
			}
		}
		if n == 0 {
			unready = append(unready, strconv.Itoa(s))
		}
	}
	if r.draining.Load() {
		resp.Ready = false
		resp.Reason = "draining"
	} else if len(unready) > 0 {
		resp.Ready = false
		resp.Reason = "no healthy replica for shard(s) " + strings.Join(unready, ",")
	}
	status := http.StatusOK
	if !resp.Ready {
		status = http.StatusServiceUnavailable
	}
	api.WriteJSON(w, status, resp)
}

// failEnvelope maps err onto the error envelope; an error the gateway did
// not raise as an *api.Error (a shard body it could not decode) is a 502.
func failEnvelope(err error) *api.Error {
	var ae *api.Error
	if !errors.As(err, &ae) {
		ae = &api.Error{Status: http.StatusBadGateway, Code: api.CodeInternal, Msg: err.Error()}
	}
	return ae
}

// mergeGrace is reserved out of the client budget for gathering and merging
// the legs.
const mergeGrace = 300 * time.Millisecond

// subQuery rewrites the client query for one shard leg: per-shard node
// parameters override the client's, and the budget is shrunk by the merge
// grace so the gateway has time to gather and merge before its own deadline.
// The leg budget is a function of the client's budget, not of the time
// left: repeats of a query send the same leg queries, which the shards can
// then answer from their caches.
func (r *Router) subQuery(req *http.Request, overrides map[string]string) string {
	q := url.Values{}
	for k, vs := range req.URL.Query() {
		q[k] = vs
	}
	for k, v := range overrides {
		q.Set(k, v)
	}
	budget := daemon.BudgetOf(req.Context()).Duration
	sub := budget - mergeGrace
	if sub < budget/2 {
		sub = budget / 2
	}
	q.Set("budget", sub.String())
	return "?" + q.Encode()
}

// groupParam parses a comma-separated original-id list and groups it by
// owning shard.
func (r *Router) groupParam(req *http.Request, param string) (map[int][]int64, []int64, error) {
	all, err := api.IDs(req.URL.Query(), param)
	if err != nil {
		return nil, nil, err
	}
	byShard := make(map[int][]int64)
	for _, id := range all {
		shard, ok := r.owner[id]
		if !ok {
			return nil, nil, api.NotFound("unknown node %d", id)
		}
		byShard[shard] = append(byShard[shard], id)
	}
	return byShard, all, nil
}

func idList(ids []int64) string {
	parts := make([]string, len(ids))
	for i, id := range ids {
		parts[i] = strconv.FormatInt(id, 10)
	}
	return strings.Join(parts, ",")
}

func sortedShards(byShard map[int][]int64) []int {
	out := make([]int, 0, len(byShard))
	for s := range byShard {
		out = append(out, s)
	}
	sort.Ints(out)
	return out
}

// --- single-shard pass-through endpoints ----------------------------------

// relay answers a query from the one shard that owns it: a success body is
// passed on as the leg's bytes, with only its annotation decoded for the
// request log and the trace; the shard's error envelope is re-raised (so
// this gateway's log and span carry its code), and a shard with no usable
// replica is a retryable shard_unavailable, since there is nothing to
// degrade to.
func (r *Router) relay(ctx context.Context, shard int, pathQ string) (*daemon.Answer, error) {
	leg := r.fetchShard(ctx, shard, pathQ)
	if leg.Err != nil {
		return nil, &api.Error{
			Status: http.StatusServiceUnavailable, Code: api.CodeShardUnavailable,
			Msg:        fmt.Sprintf("shard %d unavailable: %v", shard, leg.Err),
			RetryAfter: time.Second,
		}
	}
	if !leg.ok() {
		if e := api.ParseError(leg.Status, leg.Body); e != nil {
			return nil, e
		}
	}
	ans := &daemon.Answer{Status: leg.Status, Body: leg.Body}
	if err := json.Unmarshal(leg.Body, &ans.Partial); err != nil {
		return nil, fmt.Errorf("shard %d answered %d with an undecodable body: %v", shard, leg.Status, err)
	}
	return ans, nil
}

// passThrough routes a query to the shard owning the path {node}.
func (r *Router) passThrough(req *http.Request, path string) (*daemon.Answer, error) {
	id, err := api.Node(req.PathValue("node"))
	if err != nil {
		return nil, err
	}
	shard, ok := r.owner[id]
	if !ok {
		return nil, api.NotFound("unknown node %d", id)
	}
	return r.relay(req.Context(), shard, path+r.subQuery(req, nil))
}

func (r *Router) handleSphere(req *http.Request) (*daemon.Answer, error) {
	return r.passThrough(req, "/v1/sphere/"+url.PathEscape(req.PathValue("node")))
}

func (r *Router) handleModes(req *http.Request) (*daemon.Answer, error) {
	return r.passThrough(req, "/v1/modes/"+url.PathEscape(req.PathValue("node")))
}

// --- scatter-gather endpoints ---------------------------------------------

func (r *Router) handleSpread(req *http.Request) (*daemon.Answer, error) {
	byShard, all, err := r.groupParam(req, "seeds")
	if err != nil {
		return nil, err
	}
	method := req.URL.Query().Get("method")
	if method == "" {
		method = "index"
	}
	shards := sortedShards(byShard)
	legs := r.scatter(req.Context(), shards, func(s int) string {
		return "/v1/spread" + r.subQuery(req, map[string]string{"seeds": idList(byShard[s])})
	})
	resp, err := r.mergeSpread(legs, byShard, all, method)
	if err != nil {
		return nil, err
	}
	return daemon.Encode(resp)
}

func (r *Router) handleSeeds(req *http.Request) (*daemon.Answer, error) {
	raw := req.URL.Query().Get("k")
	if raw == "" {
		return nil, api.BadRequest("missing k parameter")
	}
	k, err := strconv.Atoi(raw)
	if err != nil || k < 1 || k > r.topo.NumNodes {
		return nil, api.BadRequest("k must be in [1, %d], got %q", r.topo.NumNodes, raw)
	}
	shards := make([]int, len(r.shards))
	for i := range shards {
		shards[i] = i
	}
	legs := r.scatter(req.Context(), shards, func(s int) string {
		ks := k
		if n := r.topo.Shards[s].NumNodes; ks > n {
			ks = n
		}
		return "/v1/seeds" + r.subQuery(req, map[string]string{"k": strconv.Itoa(ks)})
	})
	resp, err := r.mergeSeeds(legs, k)
	if err != nil {
		return nil, err
	}
	return daemon.Encode(resp)
}

func (r *Router) handleReliability(req *http.Request) (*daemon.Answer, error) {
	byShard, all, err := r.groupParam(req, "sources")
	if err != nil {
		return nil, err
	}
	threshold, err := api.Threshold(req.URL.Query())
	if err != nil {
		return nil, err
	}
	shards := sortedShards(byShard)
	legs := r.scatter(req.Context(), shards, func(s int) string {
		return "/v1/reliability" + r.subQuery(req, map[string]string{"sources": idList(byShard[s])})
	})
	resp, err := r.mergeReliability(legs, all, threshold)
	if err != nil {
		return nil, err
	}
	return daemon.Encode(resp)
}

func (r *Router) handleStability(req *http.Request) (*daemon.Answer, error) {
	byShard, all, err := r.groupParam(req, "seeds")
	if err != nil {
		return nil, err
	}
	shards := sortedShards(byShard)
	if len(shards) == 1 {
		// Single-owner seed sets are exact: relay the owning shard's answer.
		s := shards[0]
		return r.relay(req.Context(), s, "/v1/stability"+r.subQuery(req, map[string]string{"seeds": idList(byShard[s])}))
	}
	legs := r.scatter(req.Context(), shards, func(s int) string {
		return "/v1/stability" + r.subQuery(req, map[string]string{"seeds": idList(byShard[s])})
	})
	resp, err := r.mergeStability(legs, byShard, all)
	if err != nil {
		return nil, err
	}
	return daemon.Encode(resp)
}

// --- info & topology ------------------------------------------------------

func (r *Router) handleInfo(*http.Request) (*daemon.Answer, error) {
	resp := api.GatewayInfo{
		Shards:           len(r.shards),
		Nodes:            r.topo.NumNodes,
		GraphFingerprint: r.topo.GraphFingerprint,
		CutEdges:         r.topo.CutEdges,
		CutBound:         r.topo.CutBound,
		CutProb:          r.topo.CutProb,
		UptimeSeconds:    int64(r.now().Sub(r.started).Seconds()),
	}
	for _, group := range r.shards {
		for _, rep := range group {
			resp.TotalReplicas++
			if rep.healthy.Load() {
				resp.HealthyReplicas++
			}
		}
	}
	return daemon.Encode(resp)
}

// replicaStatus is one replica's live state in GET /v1/topology.
type replicaStatus struct {
	URL       string `json:"url"`
	Healthy   bool   `json:"healthy"`
	Breaker   string `json:"breaker"`
	LastError string `json:"last_error,omitempty"`
}

type shardStatus struct {
	ID       int             `json:"id"`
	Nodes    int             `json:"nodes"`
	Replicas []replicaStatus `json:"replicas"`
}

func (r *Router) handleTopology(w http.ResponseWriter, _ *http.Request) {
	out := struct {
		GraphFingerprint string        `json:"graph_fingerprint"`
		Shards           []shardStatus `json:"shards"`
	}{GraphFingerprint: r.topo.GraphFingerprint}
	for s, group := range r.shards {
		st := shardStatus{ID: s, Nodes: r.topo.Shards[s].NumNodes}
		for _, rep := range group {
			st.Replicas = append(st.Replicas, replicaStatus{
				URL:       rep.baseURL,
				Healthy:   rep.healthy.Load(),
				Breaker:   rep.breaker.State().String(),
				LastError: rep.probeErr(),
			})
		}
		out.Shards = append(out.Shards, st)
	}
	api.WriteJSON(w, http.StatusOK, out)
}
