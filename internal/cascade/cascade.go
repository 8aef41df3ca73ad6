// Package cascade estimates the expected spread σ(S) of a seed set, the
// objective of influence maximization (Kempe, Kleinberg & Tardos, KDD
// 2003): by Monte Carlo over fresh cascades drawn by worlds.Sampler under
// the IC or the LT model, or over the sampled worlds of a cascade index.
package cascade

import (
	"context"
	"encoding/binary"
	"errors"
	"fmt"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/trace"
	"soi/internal/worlds"
)

// ExpectedSpread estimates σ(seeds) by Monte Carlo over trials independent
// cascades under model, parallelized across workers (zero or negative =
// GOMAXPROCS). The result is deterministic for a fixed seed regardless of
// worker count. Workers check ctx between simulations, so a canceled
// context returns ctx.Err() promptly; worker panics are recovered into a
// *pool.PanicError. The registry ctx carries (telemetry.FromContext)
// receives per-trial cascade sizes (cascade.size), a trial counter
// (cascade.trials) and pool utilization; a "cascade.expected_spread" trace
// span, with the trial count as its attribute, opens under the span ctx
// carries.
//
// cfg puts the estimate under the crash-safe execution layer; its zero
// value is the plain run. With cfg.Path set, the per-trial cascade sizes are
// summed into a checkpoint (an order-independent integer total plus the
// completed-trial bitmap), so a crash or cancellation loses at most one
// flush interval of simulations and a rerun with the same inputs returns a
// value bit-identical to an uninterrupted run.
//
// With cfg.Budget.Deadline set, the estimator stops simulating when the
// deadline nears and returns the mean over the completed trials together
// with a *checkpoint.PartialError; the bound it carries is normalized to
// [0,1] — multiply by n for spread units.
func ExpectedSpread(ctx context.Context, g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64, model worlds.Model, workers int, cfg checkpoint.Config) (float64, error) {
	if trials <= 0 {
		return 0, ctx.Err()
	}
	// sizes[i] is trial i's cascade size, written once before MarkDone(i)
	// and immutable afterwards; the flusher reads only marked trials. A
	// resumed trial's size is part of resumedTotal and stays 0 here.
	sizes := make([]int64, trials)
	var resumedTotal int64
	var resumed *checkpoint.Bitmap // nil: nothing resumed
	sum := func(done *checkpoint.Bitmap) int64 {
		total := resumedTotal
		for i := range sizes {
			if done.Get(i) {
				total += sizes[i]
			}
		}
		return total
	}
	r, st, err := checkpoint.Start(ctx, cfg, func() uint64 { return spreadKey(g, seeds, trials, seed, model) }, trials,
		func(done *checkpoint.Bitmap) ([]byte, error) {
			return binary.LittleEndian.AppendUint64(nil, uint64(sum(done))), nil
		})
	if err != nil {
		return 0, err
	}
	if st != nil {
		if len(st.Payload) != 8 {
			r.Abort()
			return 0, fmt.Errorf("%w: spread payload is %d bytes, want 8", checkpoint.ErrCorrupt, len(st.Payload))
		}
		resumedTotal = int64(binary.LittleEndian.Uint64(st.Payload))
		resumed = st.Done
	}

	// Split does not advance master, so each worker splits trial i's
	// generator itself: trial i draws the same whichever worker runs it,
	// and no two workers' generators share memory.
	master := rng.New(seed)
	w := pool.Workers(workers, trials)
	samplers := make([]*worlds.Sampler, w)
	bufs := make([][]graph.NodeID, w)
	tel := telemetry.FromContext(ctx)
	mTrials := tel.Counter("cascade.trials")
	mSize := tel.Histogram("cascade.size")
	sp := trace.Child(ctx, "cascade.expected_spread", trace.Int("trials", int64(trials)))
	runErr := pool.Run(ctx, trials, pool.Options{Workers: w}, func(worker, i int) error {
		if resumed.Get(i) {
			return nil
		}
		if err := r.Gate(); err != nil {
			return err
		}
		if samplers[worker] == nil {
			// A cascade never outgrows n nodes, so buf is never reallocated.
			samplers[worker] = worlds.NewSampler(g, model)
			bufs[worker] = make([]graph.NodeID, 0, g.NumNodes())
		}
		cascade, _ := samplers[worker].Forward(seeds, master.Split(uint64(i)), bufs[worker], nil, nil)
		size := int64(len(cascade))
		sizes[i] = size
		mTrials.Inc()
		mSize.Observe(size)
		r.MarkDone(i)
		return nil
	})
	sp.End()
	if err := r.Settle(runErr); err != nil {
		if !errors.Is(err, checkpoint.ErrPartial) {
			return 0, err
		}
		done := r.Snapshot()
		return float64(sum(done)) / float64(done.Count()), err
	}
	total := resumedTotal
	for _, size := range sizes {
		total += size
	}
	return float64(total) / float64(trials), nil
}

// spreadKey keys ExpectedSpread checkpoints.
func spreadKey(g *graph.Graph, seeds []graph.NodeID, trials int, seed uint64, model worlds.Model) uint64 {
	return checkpoint.NewHasher().
		String("cascade.ExpectedSpread").
		Graph(g).
		Nodes(seeds).
		Int(trials).
		Uint64(seed).
		Int(int(model)).
		Sum()
}

// SpreadFromIndex estimates σ(seeds) as the average cascade size over the
// worlds of a prebuilt cascade index: σ̂(S) = (1/ℓ) Σ_i |R_S(G_i)|. Both
// influence-maximization methods in the paper are evaluated with the same
// sampled worlds; sharing the index keeps that comparison exact.
func SpreadFromIndex(x *index.Index, seeds []graph.NodeID, s *index.Scratch) float64 {
	total := 0
	for i := 0; i < x.NumWorlds(); i++ {
		total += x.CascadeSizeFromSet(seeds, i, s)
	}
	// Quarantined worlds contribute 0 to the sum, so averaging over the
	// live count keeps the estimate unbiased over the surviving sample.
	live := x.LiveWorlds()
	if live == 0 {
		return 0
	}
	return float64(total) / float64(live)
}
