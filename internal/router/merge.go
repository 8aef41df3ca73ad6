package router

import (
	"encoding/json"
	"fmt"
	"sort"

	"soi/internal/api"
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

// gather decodes each live leg into T, the same body type the merge returns,
// and hands it to live; each failed leg goes to dead. It returns the
// answer's scatter health and whether the legs already make it partial (a
// shard failed, or a live one answered partial itself); the merge adds its
// own widenings. A live leg's permanent client error (the request itself is
// bad) is returned as is, to be relayed rather than merged; a live leg whose
// body does not decode is a gateway error.
func gather[T any](legs []shardReply, live func(shard int, v T), dead func(shard int)) (*api.Scatter, bool, error) {
	sc := &api.Scatter{ShardsTotal: len(legs)}
	legPartial := false
	for _, leg := range legs {
		if e := leg.clientError(); e != nil {
			return nil, false, e
		}
		if !leg.ok() {
			sc.FailedShards = append(sc.FailedShards, leg.Shard)
			dead(leg.Shard)
			continue
		}
		var v T
		if err := json.Unmarshal(leg.Body, &v); err != nil {
			return nil, false, fmt.Errorf("shard %d: bad response body: %v", leg.Shard, err)
		}
		sc.ShardsOK++
		legPartial = legPartial || api.AnnotationOf(v).Degraded
		live(leg.Shard, v)
	}
	sort.Ints(sc.FailedShards)
	return sc, legPartial || len(sc.FailedShards) > 0, nil
}

// mergeSpread combines per-shard spread legs. seedsByShard maps shard id to
// its seed subset (original ids); legs correspond to the owning shards.
func (r *Router) mergeSpread(legs []shardReply, seedsByShard map[int][]int64, allSeeds []int64, method string) (api.Spread, error) {
	resp := api.Spread{Seeds: allSeeds, Method: method}
	sc, partial, err := gather(legs, func(_ int, sr api.Spread) {
		resp.Spread += sr.Spread
		resp.ErrorBound += sr.ErrorBound
		resp.Estimator = sr.Estimator
	}, func(shard int) {
		// Degrade: the dead shard's seeds are active themselves (lower
		// bound); everything else it owns goes into the error bound.
		nSeeds := len(seedsByShard[shard])
		resp.Spread += float64(nSeeds)
		resp.ErrorBound += float64(r.topo.Shards[shard].NumNodes - nSeeds)
	})
	if err != nil {
		return resp, err
	}
	resp.ErrorBound += r.topo.CutBound
	sc.CutEdges = r.topo.CutEdges
	resp.Scatter = sc
	resp.Degraded = partial || r.topo.CutBound > 0
	return resp, nil
}

// mergeSeeds k-way merges the per-shard greedy gain sequences into the
// global top-k. Exact for a clean partition (separable objective).
func (r *Router) mergeSeeds(legs []shardReply, k int) (api.Seeds, error) {
	resp := api.Seeds{K: k}
	type stream struct {
		shard int
		res   api.Seeds
		pos   int
	}
	var streams []*stream
	sc, partial, err := gather(legs, func(shard int, sr api.Seeds) {
		resp.LazyEvaluations += sr.LazyEvaluations
		resp.ErrorBound += sr.ErrorBound
		resp.Estimator = sr.Estimator
		streams = append(streams, &stream{shard: shard, res: sr})
	}, func(shard int) {
		// A dead shard's best-k could cover at most its whole node set.
		resp.ErrorBound += float64(r.topo.Shards[shard].NumNodes)
	})
	if err != nil {
		return resp, err
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
	sc.CutEdges = r.topo.CutEdges
	resp.Scatter = sc
	resp.Degraded = partial || r.topo.CutBound > 0 || len(resp.Seeds) < k
	return resp, nil
}

// mergeReliability unions per-shard reliable sets. The probability bound is
// the worst shard bound plus CutProb (cross-shard activation can only raise
// reach probabilities, so shard-local estimates are at most CutProb low).
func (r *Router) mergeReliability(legs []shardReply, sources []int64, threshold float64) (api.Reliability, error) {
	resp := api.Reliability{Sources: sources, Threshold: threshold, Samples: -1}
	missing := 0
	sc, partial, err := gather(legs, func(_ int, sr api.Reliability) {
		resp.Nodes = append(resp.Nodes, sr.Nodes...)
		resp.ErrorBound = max(resp.ErrorBound, sr.ErrorBound)
		if resp.Samples < 0 || sr.Samples < resp.Samples {
			resp.Samples = sr.Samples
		}
	}, func(shard int) {
		missing += r.topo.Shards[shard].NumNodes
	})
	if err != nil {
		return resp, err
	}
	resp.Samples = max(resp.Samples, 0)
	sort.Slice(resp.Nodes, func(a, b int) bool { return resp.Nodes[a] < resp.Nodes[b] })
	resp.Count = len(resp.Nodes)
	resp.ErrorBound += r.topo.CutProb
	sc.MissingNodes = missing
	sc.CutEdges = r.topo.CutEdges
	resp.Scatter = sc
	resp.Degraded = partial || r.topo.CutProb > 0
	return resp, nil
}

// mergeStability approximates a cross-shard seed set's stability by the
// size-weighted mean of the per-shard stabilities over the union of the
// per-shard typical cascades.
func (r *Router) mergeStability(legs []shardReply, seedsByShard map[int][]int64, allSeeds []int64) (api.Stability, error) {
	resp := api.Stability{Seeds: allSeeds, Approximation: "size_weighted_union", Samples: -1}
	totalW, costW, stabW := 0.0, 0.0, 0.0
	deadSeeds, missing := 0, 0
	sc, partial, err := gather(legs, func(_ int, sr api.Stability) {
		resp.Set = append(resp.Set, sr.Set...)
		w := float64(len(sr.Set))
		totalW += w
		costW += w * sr.SampleCost
		stabW += w * sr.Stability
		resp.ErrorBound = max(resp.ErrorBound, sr.ErrorBound)
		if resp.Samples < 0 || sr.Samples < resp.Samples {
			resp.Samples = sr.Samples
		}
	}, func(shard int) {
		deadSeeds += len(seedsByShard[shard])
		missing += r.topo.Shards[shard].NumNodes
	})
	if err != nil {
		return resp, err
	}
	resp.Samples = max(resp.Samples, 0)
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
	resp.ErrorBound = min(resp.ErrorBound, 1)
	sc.MissingNodes = missing
	resp.Scatter = sc
	resp.Degraded = partial || r.topo.CutProb > 0
	return resp, nil
}
