package router

import (
	"encoding/json"
	"fmt"
	"sort"
)

// Merge math for scatter-gather answers. All merges are error-bound-aware:
// whatever a dead shard or a cut edge could have contributed is added to the
// answer's error bound, so a degraded (206) answer still brackets the truth.
//
// Derivations (see DESIGN.md §Sharded serving):
//
//   - Spread is additive over a clean node partition: a cascade from seeds
//     S = ∪ S_i can only activate nodes reachable from its own shard's
//     seeds when no edge crosses the cut, so σ(S) = Σ σ_i(S_i). Each cut
//     edge e=(u,v) adds at most p(e)·|shard(v)| expected activations (union
//     bound), giving the CutBound widening. A failed shard d contributes at
//     least |S_d| (seeds are active by definition) and at most |shard d|.
//   - Seed selection: with disjoint shards the coverage objective is
//     separable, so the global greedy sequence is the gain-ordered merge of
//     the per-shard greedy sequences; merging the per-shard gain streams
//     and keeping the top k reproduces the single-node greedy exactly.
//   - Reliability: reach(v) ≥ t is decided per shard; the union of per-
//     shard answers is the global answer for a clean partition. Per-node
//     probability estimates carry max-of-shards sampling bound plus
//     CutProb (cross-shard activation could only raise reach probability).
//   - Stability of a cross-shard seed set is approximated by the size-
//     weighted mean of per-shard stabilities over the union of the shard
//     typical cascades (flagged "size_weighted_union"); single-shard seed
//     sets are served exactly by the owning shard.
type degradeInfo struct {
	// Partial is true when the answer is degraded: a shard failed, a shard
	// answered 206, cut edges widen the bound, or nodes are missing. A
	// healthy shard's own estimator bound (the Cohen bound of a sketch
	// answer) is carried in ErrorBound but degrades nothing.
	Partial bool `json:"partial,omitempty"`
	// ErrorBound bounds the answer's deviation (units of the estimate it
	// annotates: nodes for spread/seeds, probability/Jaccard for
	// reliability/stability).
	ErrorBound float64 `json:"error_bound,omitempty"`
	// ShardsOK / ShardsTotal report scatter health for this answer.
	ShardsOK    int `json:"shards_ok"`
	ShardsTotal int `json:"shards_total"`
	// FailedShards lists the shards whose legs failed, if any.
	FailedShards []int `json:"failed_shards,omitempty"`
	// MissingNodes counts nodes whose membership in a set-valued answer is
	// unknown because their owning shard failed.
	MissingNodes int `json:"missing_nodes,omitempty"`
	// CutEdges is the number of partition cut edges accounted in ErrorBound.
	CutEdges int `json:"cut_edges,omitempty"`

	// legPartial records that a live shard answered partial itself.
	legPartial bool
}

// answered counts a live leg and carries over its own partial flag.
func (d *degradeInfo) answered(p shardPartial) {
	d.ShardsOK++
	d.legPartial = d.legPartial || p.Partial
}

// degraded reports whether the answer is partial; cut is the widening the
// partition's cut edges added to ErrorBound.
func (d *degradeInfo) degraded(cut float64) bool {
	return len(d.FailedShards) > 0 || d.legPartial || cut > 0 || d.MissingNodes > 0
}

// Decode targets for shard responses (the subset of fields merging needs).

type shardPartial struct {
	Partial    bool    `json:"partial"`
	ErrorBound float64 `json:"error_bound"`
}

type shardSpread struct {
	Spread    float64 `json:"spread"`
	Method    string  `json:"method"`
	Trials    int     `json:"trials"`
	Estimator string  `json:"estimator"`
	shardPartial
}

type shardSeeds struct {
	Seeds           []int64   `json:"seeds"`
	Gains           []float64 `json:"gains"`
	Objective       float64   `json:"objective"`
	LazyEvaluations int       `json:"lazy_evaluations"`
	Estimator       string    `json:"estimator"`
	shardPartial
}

type shardReliability struct {
	Nodes   []int64 `json:"nodes"`
	Samples int     `json:"samples"`
	shardPartial
}

type shardStability struct {
	Set        []int64 `json:"set"`
	SampleCost float64 `json:"sample_cost"`
	Stability  float64 `json:"stability"`
	Samples    int     `json:"samples"`
	shardPartial
}

// Gateway response shapes (soid-compatible fields plus degradeInfo).

type gwSpreadResponse struct {
	Seeds  []int64 `json:"seeds"`
	Spread float64 `json:"spread"`
	Method string  `json:"method"`
	// Estimator is "sketch" when the shards answered from their combined
	// bottom-k sketches; the per-shard Cohen bounds then sum into ErrorBound
	// (shard answers are independent estimates of disjoint contributions).
	Estimator string `json:"estimator,omitempty"`
	degradeInfo
}

type gwSeedsResponse struct {
	K               int       `json:"k"`
	Seeds           []int64   `json:"seeds"`
	Gains           []float64 `json:"gains"`
	Objective       float64   `json:"objective"`
	Coverage        float64   `json:"coverage"`
	LazyEvaluations int       `json:"lazy_evaluations"`
	// Estimator is "sketch" for SKIM-style sketch-space selection on the
	// shards (per-shard objective bounds summing into ErrorBound).
	Estimator string `json:"estimator,omitempty"`
	degradeInfo
}

type gwReliabilityResponse struct {
	Sources   []int64 `json:"sources"`
	Threshold float64 `json:"threshold"`
	Nodes     []int64 `json:"nodes"`
	Count     int     `json:"count"`
	Samples   int     `json:"samples"`
	degradeInfo
}

type gwStabilityResponse struct {
	Seeds      []int64 `json:"seeds"`
	Set        []int64 `json:"set"`
	Size       int     `json:"size"`
	SampleCost float64 `json:"sample_cost"`
	Stability  float64 `json:"stability"`
	Samples    int     `json:"samples"`
	// Approximation flags that a cross-shard stability is the size-weighted
	// mean of per-shard stabilities, not an exact joint estimate.
	Approximation string `json:"approximation,omitempty"`
	degradeInfo
}

func decodeLeg[T any](leg shardReply) (T, error) {
	var v T
	if !leg.ok() {
		return v, fmt.Errorf("shard %d leg failed", leg.Shard)
	}
	if err := json.Unmarshal(leg.Body, &v); err != nil {
		return v, fmt.Errorf("shard %d: bad response body: %v", leg.Shard, err)
	}
	return v, nil
}

// mergeSpread combines per-shard spread legs. seedsByShard maps shard id to
// its seed subset (original ids); legs correspond to the owning shards.
func (r *Router) mergeSpread(legs []shardReply, seedsByShard map[int][]int64, allSeeds []int64, method string) (gwSpreadResponse, error) {
	resp := gwSpreadResponse{Seeds: allSeeds, Method: method}
	resp.ShardsTotal = len(legs)
	var decodeErr error
	for _, leg := range legs {
		sr, err := decodeLeg[shardSpread](leg)
		if err != nil {
			if leg.ok() {
				decodeErr = err // malformed body from an "ok" leg: surface loudly
				continue
			}
			// Degrade: the dead shard's seeds are active themselves (lower
			// bound); everything else it owns goes into the error bound.
			nSeeds := len(seedsByShard[leg.Shard])
			resp.Spread += float64(nSeeds)
			resp.ErrorBound += float64(r.topo.Shards[leg.Shard].NumNodes - nSeeds)
			resp.FailedShards = append(resp.FailedShards, leg.Shard)
			continue
		}
		resp.Spread += sr.Spread
		resp.ErrorBound += sr.ErrorBound
		resp.Estimator = sr.Estimator
		resp.answered(sr.shardPartial)
	}
	if decodeErr != nil {
		return resp, decodeErr
	}
	resp.ErrorBound += r.topo.CutBound
	resp.CutEdges = r.topo.CutEdges
	resp.Partial = resp.degraded(r.topo.CutBound)
	sort.Slice(resp.FailedShards, func(a, b int) bool { return resp.FailedShards[a] < resp.FailedShards[b] })
	return resp, nil
}

// mergeSeeds k-way merges the per-shard greedy gain sequences into the
// global top-k. Exact for a clean partition (separable objective).
func (r *Router) mergeSeeds(legs []shardReply, k int) (gwSeedsResponse, error) {
	resp := gwSeedsResponse{K: k}
	resp.ShardsTotal = len(legs)
	type stream struct {
		shard int
		res   shardSeeds
		pos   int
	}
	var streams []*stream
	var decodeErr error
	for _, leg := range legs {
		sr, err := decodeLeg[shardSeeds](leg)
		if err != nil {
			if leg.ok() {
				decodeErr = err
				continue
			}
			// A dead shard's best-k could cover at most its whole node set.
			resp.ErrorBound += float64(r.topo.Shards[leg.Shard].NumNodes)
			resp.FailedShards = append(resp.FailedShards, leg.Shard)
			continue
		}
		resp.answered(sr.shardPartial)
		resp.LazyEvaluations += sr.LazyEvaluations
		resp.ErrorBound += sr.ErrorBound
		resp.Estimator = sr.Estimator
		streams = append(streams, &stream{shard: leg.Shard, res: sr})
	}
	if decodeErr != nil {
		return resp, decodeErr
	}
	// Deterministic merge: highest gain wins; ties break on shard id. Each
	// per-shard sequence is non-increasing, so heads are always the best
	// remaining candidates.
	sort.Slice(streams, func(a, b int) bool { return streams[a].shard < streams[b].shard })
	for len(resp.Seeds) < k {
		var best *stream
		for _, st := range streams {
			if st.pos >= len(st.res.Seeds) {
				continue
			}
			if best == nil || st.res.Gains[st.pos] > best.res.Gains[best.pos] {
				best = st
			}
		}
		if best == nil {
			break // fewer than k seeds exist across live shards
		}
		resp.Seeds = append(resp.Seeds, best.res.Seeds[best.pos])
		resp.Gains = append(resp.Gains, best.res.Gains[best.pos])
		resp.Objective += best.res.Gains[best.pos]
		best.pos++
	}
	resp.Coverage = resp.Objective / float64(r.topo.NumNodes)
	resp.ErrorBound += r.topo.CutBound
	resp.CutEdges = r.topo.CutEdges
	resp.Partial = resp.degraded(r.topo.CutBound) || len(resp.Seeds) < k
	sort.Slice(resp.FailedShards, func(a, b int) bool { return resp.FailedShards[a] < resp.FailedShards[b] })
	return resp, nil
}

// mergeReliability unions per-shard reliable sets. The probability bound is
// the worst shard bound plus CutProb (cross-shard activation can only raise
// reach probabilities, so shard-local estimates are at most CutProb low).
func (r *Router) mergeReliability(legs []shardReply, sources []int64, threshold float64) (gwReliabilityResponse, error) {
	resp := gwReliabilityResponse{Sources: sources, Threshold: threshold}
	resp.ShardsTotal = len(legs)
	resp.Samples = -1
	var decodeErr error
	for _, leg := range legs {
		sr, err := decodeLeg[shardReliability](leg)
		if err != nil {
			if leg.ok() {
				decodeErr = err
				continue
			}
			resp.MissingNodes += r.topo.Shards[leg.Shard].NumNodes
			resp.FailedShards = append(resp.FailedShards, leg.Shard)
			continue
		}
		resp.answered(sr.shardPartial)
		resp.Nodes = append(resp.Nodes, sr.Nodes...)
		if sr.ErrorBound > resp.ErrorBound {
			resp.ErrorBound = sr.ErrorBound
		}
		if resp.Samples < 0 || sr.Samples < resp.Samples {
			resp.Samples = sr.Samples
		}
	}
	if decodeErr != nil {
		return resp, decodeErr
	}
	if resp.Samples < 0 {
		resp.Samples = 0
	}
	sort.Slice(resp.Nodes, func(a, b int) bool { return resp.Nodes[a] < resp.Nodes[b] })
	resp.Count = len(resp.Nodes)
	resp.ErrorBound += r.topo.CutProb
	resp.CutEdges = r.topo.CutEdges
	resp.Partial = resp.degraded(r.topo.CutProb)
	sort.Slice(resp.FailedShards, func(a, b int) bool { return resp.FailedShards[a] < resp.FailedShards[b] })
	return resp, nil
}

// mergeStability approximates a cross-shard seed set's stability by the
// size-weighted mean of the per-shard stabilities over the union of the
// per-shard typical cascades.
func (r *Router) mergeStability(legs []shardReply, seedsByShard map[int][]int64, allSeeds []int64) (gwStabilityResponse, error) {
	resp := gwStabilityResponse{Seeds: allSeeds, Approximation: "size_weighted_union"}
	resp.ShardsTotal = len(legs)
	resp.Samples = -1
	totalW, costW, stabW := 0.0, 0.0, 0.0
	deadSeeds := 0
	var decodeErr error
	for _, leg := range legs {
		sr, err := decodeLeg[shardStability](leg)
		if err != nil {
			if leg.ok() {
				decodeErr = err
				continue
			}
			deadSeeds += len(seedsByShard[leg.Shard])
			resp.MissingNodes += r.topo.Shards[leg.Shard].NumNodes
			resp.FailedShards = append(resp.FailedShards, leg.Shard)
			continue
		}
		resp.answered(sr.shardPartial)
		resp.Set = append(resp.Set, sr.Set...)
		w := float64(len(sr.Set))
		totalW += w
		costW += w * sr.SampleCost
		stabW += w * sr.Stability
		if sr.ErrorBound > resp.ErrorBound {
			resp.ErrorBound = sr.ErrorBound
		}
		if resp.Samples < 0 || sr.Samples < resp.Samples {
			resp.Samples = sr.Samples
		}
	}
	if decodeErr != nil {
		return resp, decodeErr
	}
	if resp.Samples < 0 {
		resp.Samples = 0
	}
	if totalW > 0 {
		resp.SampleCost = costW / totalW
		resp.Stability = stabW / totalW
	}
	sort.Slice(resp.Set, func(a, b int) bool { return resp.Set[a] < resp.Set[b] })
	resp.Size = len(resp.Set)
	// Jaccard-scale widenings: cut edges (CutProb) plus the fraction of the
	// seed set whose shard never answered.
	resp.ErrorBound += r.topo.CutProb
	if len(allSeeds) > 0 && deadSeeds > 0 {
		resp.ErrorBound += float64(deadSeeds) / float64(len(allSeeds))
	}
	if resp.ErrorBound > 1 {
		resp.ErrorBound = 1
	}
	resp.Partial = resp.degraded(r.topo.CutProb)
	sort.Slice(resp.FailedShards, func(a, b int) bool { return resp.FailedShards[a] < resp.FailedShards[b] })
	return resp, nil
}
