package infmax

import (
	"context"
	"errors"
	"fmt"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/trace"
	"soi/internal/worlds"
)

// Reverse-reachable (RR) sketch influence maximization, after Borgs,
// Brautbar, Chayes & Lucier (SODA 2014) and Tang et al.'s TIM (SIGMOD
// 2014) — the near-linear-time alternative the paper's related-work section
// discusses. An RR set is the set of nodes that can reach a uniformly random
// target in a random possible world; σ(S) ≈ n · (fraction of RR sets hit by
// S). Greedy max-cover over the RR sets then approximates influence
// maximization.
//
// This implementation draws a fixed number of RR sets (the bound-driven
// phase of TIM is replaced by a caller-chosen budget, which is how the
// sketch is used in practice for comparisons).

// RROptions configures the RR-sketch method.
type RROptions struct {
	// Sets is the number of reverse-reachable sets to sample.
	Sets int
	// Seed drives the sampling.
	Seed uint64
}

// RR selects k seeds by greedy max-cover over opts.Sets reverse-reachable
// sets sampled under model. Gains are in expected-spread units
// (n · covered/Sets). ctx is checked between RR-set samples and between
// greedy rounds, so a canceled context returns ctx.Err() promptly — exactly
// the "stoppable sampler" discipline RR-sketch methods presume.
//
// cfg puts the sampling under the crash-safe execution layer; its zero
// value is the plain run. With cfg.Path set, sampled RR sets are
// periodically checkpointed, so a crash or cancellation mid-sampling loses
// at most one flush interval of RR sets, and a rerun with the same graph,
// Sets, Seed and model selects seeds bit-identical to an uninterrupted run (RR set
// i depends only on its own split generator, and the greedy's outcome does
// not depend on the order of the sets). The checkpoint key deliberately
// excludes k: the stored RR sets are valid for any seed-set size, and the
// greedy max-cover over them is cheap relative to sampling, so the same
// checkpoint can finish runs with different k.
//
// With cfg.Budget.Deadline set, sampling stops when the deadline nears and
// the greedy runs over the RR sets sampled so far — the sketch's native
// anytime behaviour (Borgs et al.: sample count is a budget, and the
// estimate degrades gracefully as it shrinks). The result carries a
// *checkpoint.PartialError; gains are scaled by n/achieved, keeping them in
// expected-spread units.
//
// The registry ctx carries receives the RR-sampling metrics (infmax.rr_sets,
// infmax.rr_set_size) and the greedy metrics; the sibling "infmax.rr.sample"
// and "infmax.rr.greedy" spans open under the span ctx carries.
func RR(ctx context.Context, g *graph.Graph, k int, opts RROptions, model worlds.Model, cfg checkpoint.Config) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	if opts.Sets < 1 {
		return Selection{}, fmt.Errorf("infmax: RR Sets must be >= 1, got %d", opts.Sets)
	}
	n := g.NumNodes()
	a := rrArena{off: make([]int32, 1, opts.Sets+1)}
	if cfg.Path != "" {
		a.byID = make([][]graph.NodeID, opts.Sets)
	}
	r, st, err := checkpoint.Start(ctx, cfg, func() uint64 { return rrKey(g, opts, model) }, opts.Sets, a.encode)
	if err != nil {
		return Selection{}, err
	}
	var resumed *checkpoint.Bitmap // nil: nothing resumed
	if st != nil {
		if err := a.decode(st, n); err != nil {
			r.Abort()
			return Selection{}, err
		}
		resumed = st.Done
	}

	smp := worlds.NewSampler(g, model)
	master := rng.New(opts.Seed)
	tel := telemetry.FromContext(ctx)
	mSets := tel.Counter("infmax.rr_sets")
	mSetSize := tel.Histogram("infmax.rr_set_size")
	spSample := trace.Child(ctx, "infmax.rr.sample")
	var runErr error
	for i := 0; i < opts.Sets; i++ {
		if resumed.Get(i) {
			continue
		}
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		if runErr = r.Gate(); runErr != nil {
			break
		}
		rnd := master.Split(uint64(i))
		target := graph.NodeID(rnd.Intn(n))
		start := len(a.nodes)
		a.nodes = smp.Reverse(target, rnd, a.nodes)
		a.close(i, start)
		mSets.Inc()
		mSetSize.Observe(int64(len(a.nodes) - start))
		r.MarkDone(i)
	}
	spSample.End()
	outcome := r.Settle(runErr)
	if outcome != nil && !errors.Is(outcome, checkpoint.ErrPartial) {
		return Selection{}, outcome
	}
	// The arena holds exactly the completed sets, resumed and sampled.
	sel, err := rrGreedy(ctx, g, k, len(a.off)-1, a.off, a.nodes, tel)
	if err != nil {
		return Selection{}, err
	}
	return sel, outcome
}

// rrGreedy is the max-cover phase of the RR method over an explicit CSR of
// numSets sampled sets. Gains are scaled by n/numSets (expected-spread
// units).
func rrGreedy(ctx context.Context, g *graph.Graph, k, numSets int, setOff []int32, setNodes []graph.NodeID, tel *telemetry.Registry) (Selection, error) {
	n := g.NumNodes()
	counts := make([]int32, n)
	for _, v := range setNodes {
		counts[v]++
	}
	covered := make([]bool, numSets)
	chosen := make([]bool, n)
	scale := float64(n) / float64(numSets)
	sel := Selection{Seeds: make([]graph.NodeID, 0, k), Gains: make([]float64, 0, k)}
	containing := invertSets(n, setOff, setNodes)
	if k > n {
		k = n
	}
	gm := newGreedyMetrics(tel)
	sp := trace.Child(ctx, "infmax.rr.greedy")
	defer sp.End()
	for round := 0; round < k; round++ {
		if err := ctx.Err(); err != nil {
			return Selection{}, err
		}
		best := graph.NodeID(-1)
		var bestCount int32 = -1
		evals := 0
		for v := 0; v < n; v++ {
			if chosen[v] {
				continue
			}
			sel.LazyEvaluations++
			evals++
			if counts[v] > bestCount {
				bestCount = counts[v]
				best = graph.NodeID(v)
			}
		}
		gm.evals.Add(int64(evals))
		if best < 0 {
			break
		}
		chosen[best] = true
		sel.Seeds = append(sel.Seeds, best)
		sel.Gains = append(sel.Gains, float64(bestCount)*scale)
		gm.commit(float64(bestCount) * scale)
		lo, hi := containing.off[best], containing.off[best+1]
		for _, si := range containing.sets[lo:hi] {
			if covered[si] {
				continue
			}
			covered[si] = true
			for _, v := range setNodes[setOff[si]:setOff[si+1]] {
				counts[v]--
			}
		}
	}
	return sel, nil
}

// nodeSets is a CSR inverted index: the RR-set ids containing each node.
type nodeSets struct {
	off  []int32
	sets []int32
}

func invertSets(n int, setOff []int32, setNodes []graph.NodeID) nodeSets {
	off := make([]int32, n+1)
	for _, v := range setNodes {
		off[v+1]++
	}
	for v := 1; v <= n; v++ {
		off[v] += off[v-1]
	}
	sets := make([]int32, len(setNodes))
	cursor := make([]int32, n)
	copy(cursor, off[:n])
	for si := 0; si+1 < len(setOff); si++ {
		for _, v := range setNodes[setOff[si]:setOff[si+1]] {
			sets[cursor[v]] = int32(si)
			cursor[v]++
		}
	}
	return nodeSets{off: off, sets: sets}
}
