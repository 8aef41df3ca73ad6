// Package api is the /v1 wire contract shared by the soid daemon and the
// soigw gateway: one Go type per response body, the partial and scatter
// annotations every estimate embeds, the error envelope with its codes, and
// the request-parameter parsers both tiers apply.
//
// It imports only the standard library, so the gateway links the contract
// without the estimator stack behind it. A new response field is declared
// here once; field order is wire order, and every estimate body embeds
// Partial last so soid and soigw print the same bytes up to the gateway's
// scatter-health fields.
package api

import "net/http"

// Partial annotates an estimate with how complete it is and how far it may
// be off. Every estimate body embeds it; all-zero (the common case) renders
// nothing.
type Partial struct {
	// Degraded is the wire's "partial" flag: the answer covers less than the
	// request asked for. On soid that is budget truncation or quarantined
	// worlds; on soigw also a failed or partial shard, cut edges or missing
	// nodes. A healthy answer's own estimator bound (the Cohen bound of a
	// sketch answer) is carried in ErrorBound but degrades nothing.
	Degraded bool `json:"partial,omitempty"`
	// Achieved is the number of samples completed before the deadline.
	Achieved int `json:"achieved,omitempty"`
	// Requested is the number of samples the request asked for.
	Requested int `json:"requested,omitempty"`
	// ErrorBound bounds the answer's additive error, in the units of the
	// estimate it annotates (nodes for spread and seeds, probability or
	// Jaccard distance for reliability, stability and sphere cost). Causes
	// compose by summing (a conservative union bound), and so do their
	// failure probabilities: each soid source (budget truncation,
	// quarantine, a sketch's Cohen bound) holds at δ = bound.ServingDelta
	// (0.05), soid sums the budget and quarantine bounds, and soigw sums
	// the shards' bounds, so a merged bound holds with probability at least
	// 1 − Σδ over the summed sources. The gateway's dead-shard and cut-edge
	// widenings are added on top and are deterministic: they cost no δ.
	ErrorBound float64 `json:"error_bound,omitempty"`
	// WorldsUsed / WorldsQuarantined report index degradation: corrupt world
	// blocks quarantined by soid's index load drop out of every estimate,
	// which then covers only WorldsUsed of the index's worlds.
	WorldsUsed        int `json:"worlds_used,omitempty"`
	WorldsQuarantined int `json:"worlds_quarantined,omitempty"`
	// Scatter is the gateway's fan-out health for a merged answer; soid
	// leaves it nil, so its fields are absent from soid bodies.
	*Scatter
}

// Scatter reports a scatter-gathered answer's fan-out health.
type Scatter struct {
	ShardsOK    int `json:"shards_ok"`
	ShardsTotal int `json:"shards_total"`
	// FailedShards lists the shards whose legs failed, ascending.
	FailedShards []int `json:"failed_shards,omitempty"`
	// MissingNodes counts nodes whose membership in a set-valued answer is
	// unknown because their owning shard failed.
	MissingNodes int `json:"missing_nodes,omitempty"`
	// CutEdges is the number of partition cut edges accounted in ErrorBound.
	CutEdges int `json:"cut_edges,omitempty"`
}

type annotated interface{ annotation() Partial }

func (p Partial) annotation() Partial { return p }

// AnnotationOf returns the Partial embedded in body v (promoted through the
// embedding, so the caller need not know v's type), or the zero Partial for
// a body without one.
func AnnotationOf(v any) Partial {
	if a, ok := v.(annotated); ok {
		return a.annotation()
	}
	return Partial{}
}

// StatusOf maps an answer's partial flag to its HTTP status: 206 for a
// degraded answer, 200 otherwise.
func StatusOf(partial bool) int {
	if partial {
		return http.StatusPartialContent
	}
	return http.StatusOK
}

// Sphere answers GET /v1/sphere/{node}.
type Sphere struct {
	// Node is the queried node, in original (file) id space.
	Node int64 `json:"node"`
	// Sphere is the typical cascade of Node, sorted, in original ids.
	Sphere []int64 `json:"sphere"`
	Size   int     `json:"size"`
	// SampleCost is the training cost ρ̃ of the sphere over the index worlds.
	SampleCost float64 `json:"sample_cost"`
	// Stability is the held-out stability estimate ρ (present when the
	// request sampled it or the stored sphere carries one).
	Stability *float64 `json:"stability,omitempty"`
	// StabilitySamples is how many held-out cascades the estimate used.
	StabilitySamples int `json:"stability_samples,omitempty"`
	// Source is "store" (precomputed sphere store), "computed", or "sketch".
	Source string `json:"source"`
	// Estimator is "sketch" when the answer came from the loaded combined
	// bottom-k sketch; empty (dense) otherwise. Sketch answers carry the
	// Cohen (ε, δ=0.05) bound in error_bound.
	Estimator string `json:"estimator,omitempty"`
	// EstimatedSize is the sketch-estimated expected cascade magnitude
	// (estimator=sketch only; the sketch knows sizes, not members).
	EstimatedSize float64 `json:"estimated_size,omitempty"`
	Partial
}

// Stability answers GET /v1/stability.
type Stability struct {
	Seeds      []int64 `json:"seeds"`
	Set        []int64 `json:"set"`
	Size       int     `json:"size"`
	SampleCost float64 `json:"sample_cost"`
	Stability  float64 `json:"stability"`
	Samples    int     `json:"samples"`
	// Approximation is "size_weighted_union" when the gateway merged a
	// cross-shard seed set's stability as the size-weighted mean of the
	// per-shard stabilities rather than one joint estimate.
	Approximation string `json:"approximation,omitempty"`
	Partial
}

// Seeds answers GET /v1/seeds.
type Seeds struct {
	K int `json:"k"`
	// Seeds in selection order, original ids.
	Seeds []int64 `json:"seeds"`
	// Gains are the per-seed marginal coverage gains (covered-node units).
	Gains []float64 `json:"gains"`
	// Objective is the total sphere coverage of the selection.
	Objective float64 `json:"objective"`
	// Coverage is Objective / n.
	Coverage        float64 `json:"coverage"`
	LazyEvaluations int     `json:"lazy_evaluations"`
	// Estimator is "sketch" for SKIM-style sketch-space selection (Gains and
	// Objective are then in expected-spread units, and error_bound carries
	// the Cohen bound on Objective); empty for the dense max-cover over the
	// sphere store.
	Estimator string `json:"estimator,omitempty"`
	Partial
}

// Spread answers GET /v1/spread.
type Spread struct {
	Seeds  []int64 `json:"seeds"`
	Spread float64 `json:"spread"`
	// Method is "index" (expected spread over the loaded index's worlds) or
	// "mc" (fresh Monte-Carlo simulations under the request budget).
	Method string `json:"method"`
	// Trials is the Monte-Carlo trial count (soid, method "mc" only).
	Trials int `json:"trials,omitempty"`
	// Estimator is "sketch" when the spread came from the combined bottom-k
	// sketch (error_bound then carries the Cohen ε·estimate bound at
	// δ=0.05); empty for the dense estimators.
	Estimator string `json:"estimator,omitempty"`
	Partial
}

// Reliability answers GET /v1/reliability.
type Reliability struct {
	Sources   []int64 `json:"sources"`
	Threshold float64 `json:"threshold"`
	Nodes     []int64 `json:"nodes"`
	Count     int     `json:"count"`
	Samples   int     `json:"samples"`
	Partial
}

// Mode is one cascade mode in a Modes answer.
type Mode struct {
	Median      []int64 `json:"median"`
	Size        int     `json:"size"`
	Probability float64 `json:"probability"`
	Cost        float64 `json:"cost"`
}

// Modes answers GET /v1/modes/{node}.
type Modes struct {
	Node               int64   `json:"node"`
	K                  int     `json:"k"`
	Modes              []Mode  `json:"modes"`
	TakeoffProbability float64 `json:"takeoff_probability"`
	Partial
}

// Info answers GET /v1/info on soid.
type Info struct {
	Nodes  int `json:"nodes"`
	Edges  int `json:"edges"`
	Worlds int `json:"worlds"`
	// WorldsQuarantined counts index world blocks quarantined for corruption
	// (always present, normally 0 — a non-zero value means the index file
	// needs soifsck and answers are 206-degraded).
	WorldsQuarantined int `json:"worlds_quarantined"`
	// GraphFingerprint and IndexFingerprint identify the loaded artifacts
	// (soi.Fingerprint / Index.Fingerprint, hex); clients validate that they
	// are talking to the dataset they think they are.
	GraphFingerprint string `json:"graph_fingerprint"`
	IndexFingerprint string `json:"index_fingerprint"`
	SpheresLoaded    bool   `json:"spheres_loaded"`
	SketchLoaded     bool   `json:"sketch_loaded"`
	CacheEntries     int    `json:"cache_entries"`
	UptimeSeconds    int64  `json:"uptime_seconds"`
}

// GatewayInfo answers GET /v1/info on soigw.
type GatewayInfo struct {
	Shards           int     `json:"shards"`
	Nodes            int     `json:"nodes"`
	GraphFingerprint string  `json:"graph_fingerprint"`
	CutEdges         int     `json:"cut_edges"`
	CutBound         float64 `json:"cut_bound"`
	CutProb          float64 `json:"cut_prob"`
	HealthyReplicas  int     `json:"healthy_replicas"`
	TotalReplicas    int     `json:"total_replicas"`
	UptimeSeconds    int64   `json:"uptime_seconds"`
}

// Ready is the body of GET /readyz on both soid and soigw. On soid it
// surfaces the loaded artifact fingerprints so a router can verify a replica
// serves the shard the topology manifest promises before sending it traffic.
type Ready struct {
	Ready  bool   `json:"ready"`
	Reason string `json:"reason,omitempty"`
	// GraphFingerprint / IndexFingerprint are %016x of the loaded artifacts;
	// empty while loading.
	GraphFingerprint string `json:"graph_fingerprint,omitempty"`
	IndexFingerprint string `json:"index_fingerprint,omitempty"`
	SpheresLoaded    bool   `json:"spheres_loaded,omitempty"`
	SketchLoaded     bool   `json:"sketch_loaded,omitempty"`
}
