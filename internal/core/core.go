// Package core solves the Typical Cascade problem (Problem 1 of the paper):
// given a probabilistic graph and a source node s, find the set of nodes —
// the sphere of influence of s — minimizing the expected Jaccard distance to
// a random cascade from s.
//
// Evaluating the objective exactly is #P-hard (Theorem 1), so the solver
// follows the paper's sampling scheme (§3, Algorithm 2):
//
//  1. extract ℓ sampled cascades of s from a prebuilt cascade index
//     (internal/index), and
//  2. return their Jaccard median (internal/jaccard).
//
// Theorem 2 guarantees that a constant number of samples (independent of the
// graph size) yields a multiplicative (1+O(α)) approximation whenever the
// optimal cost is Ω(α).
//
// The expected cost ρ of the returned set — the *stability* of the sphere of
// influence — is estimated on freshly sampled held-out cascades, so the
// reported cost is an unbiased estimate rather than the (optimistically
// biased) training-sample cost, which is reported separately.
package core

import (
	"context"
	"errors"
	"fmt"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// telemetryFor resolves the registry for a computation: explicit options
// win, then whatever the index carries. May return nil (disabled).
func telemetryFor(x *index.Index, opts Options) *telemetry.Registry {
	if opts.Telemetry != nil {
		return opts.Telemetry
	}
	return x.Telemetry()
}

// metricsSet holds the per-sphere instrumentation handles, resolved once
// per computation so the per-node path never touches the registry maps. A
// nil *metricsSet disables everything.
type metricsSet struct {
	spheres     *telemetry.Counter   // core.spheres_computed
	sphereSize  *telemetry.Histogram // core.sphere_size
	medianEvals *telemetry.Counter   // jaccard.median_evals
	refineDelta *telemetry.Histogram // jaccard.refine_delta_ppm
	medianNS    *telemetry.Histogram // core.median_ns
	costNS      *telemetry.Histogram // core.cost_ns
	wm          *worlds.Metrics
}

func newMetricsSet(tel *telemetry.Registry) *metricsSet {
	if tel == nil {
		return nil
	}
	return &metricsSet{
		spheres:     tel.Counter("core.spheres_computed"),
		sphereSize:  tel.Histogram("core.sphere_size"),
		medianEvals: tel.Counter("jaccard.median_evals"),
		refineDelta: tel.Histogram("jaccard.refine_delta_ppm"),
		medianNS:    tel.Histogram("core.median_ns"),
		costNS:      tel.Histogram("core.cost_ns"),
		wm:          worlds.NewMetrics(tel),
	}
}

// observe records one computed sphere.
func (m *metricsSet) observe(res *Result, med jaccard.Median) {
	if m == nil {
		return
	}
	m.spheres.Inc()
	m.sphereSize.Observe(int64(len(res.Set)))
	m.medianEvals.Add(int64(med.Evals))
	if med.Delta > 0 {
		// Cost deltas are fractions in [0,1]; store parts-per-million so the
		// log-scale buckets resolve them.
		m.refineDelta.Observe(int64(med.Delta * 1e6))
	}
	m.medianNS.Observe(res.MedianTime.Nanoseconds())
	if res.CostTime > 0 {
		m.costNS.Observe(res.CostTime.Nanoseconds())
	}
}

func (m *metricsSet) worldMetrics() *worlds.Metrics {
	if m == nil {
		return nil
	}
	return m.wm
}

// MedianAlgorithm selects how the Jaccard median of the sampled cascades is
// computed.
type MedianAlgorithm int

const (
	// MedianPrefix is the frequency-prefix algorithm of Chierichetti et al.
	// §3.2 — the algorithm the paper runs. 1+O(ε) approximation.
	MedianPrefix MedianAlgorithm = iota
	// MedianMajority keeps elements present in at least half the samples.
	// ε + O(ε^{3/2}) approximation; faster, used in the seed-set argument.
	MedianMajority
	// MedianExact brute-forces all subsets; only for tiny universes.
	MedianExact
	// MedianPrefixRefined runs the prefix algorithm and polishes the result
	// with 1-swap steepest-descent local search — never worse than
	// MedianPrefix, at roughly 2-4x its cost.
	MedianPrefixRefined
)

func (a MedianAlgorithm) String() string {
	switch a {
	case MedianPrefix:
		return "prefix"
	case MedianMajority:
		return "majority"
	case MedianExact:
		return "exact"
	case MedianPrefixRefined:
		return "prefix+refine"
	default:
		return fmt.Sprintf("MedianAlgorithm(%d)", int(a))
	}
}

// Options configures typical-cascade computation.
type Options struct {
	// Algorithm selects the median routine; the zero value is MedianPrefix.
	Algorithm MedianAlgorithm
	// CostSamples is the number of fresh held-out cascades used to estimate
	// the expected cost ρ of the computed set. 0 disables the estimate
	// (ExpectedCost is then NaN-free but reported as -1).
	CostSamples int
	// CostSeed seeds the held-out sampling.
	CostSeed uint64
	// Workers bounds parallelism in ComputeAll; zero and negative values
	// both mean GOMAXPROCS (the library-wide Workers convention).
	Workers int
	// Progress, if non-nil, is called by ComputeAll after each node's sphere
	// is computed with (done, total). Calls are serialized.
	Progress func(done, total int)
	// Model selects the propagation model for the held-out cost estimate.
	// It must match the model the index was built with; the zero value is
	// IC.
	Model index.Model
	// Telemetry, if non-nil, receives sphere metrics (spheres computed,
	// sphere sizes, median candidate evaluations, refinement deltas, median
	// and cost-estimate timings) plus a "core.compute_all" span. When nil,
	// the registry attached to the index (if any) is used instead.
	Telemetry *telemetry.Registry
}

// Result is the typical cascade (sphere of influence) of a source.
type Result struct {
	// Seeds are the source node(s) queried.
	Seeds []graph.NodeID
	// Set is the computed typical cascade C̃*, sorted.
	Set []graph.NodeID
	// SampleCost is the average Jaccard distance of Set to the ℓ indexed
	// cascades it was derived from (the empirical objective ρ̃).
	SampleCost float64
	// ExpectedCost estimates ρ(Set) — the stability of the sphere — on
	// held-out cascades; -1 when Options.CostSamples == 0.
	ExpectedCost float64
	// MedianTime is the time spent extracting cascades and computing the
	// median (the quantity of the paper's Figure 4, left).
	MedianTime time.Duration
	// CostTime is the time spent estimating the expected cost (Figure 4,
	// right).
	CostTime time.Duration
	// Worlds is the number of index worlds the median was actually computed
	// over. It equals the index's NumWorlds unless worlds were quarantined
	// (a corruption-degraded mmap index), in which case the caller should
	// widen its reported error bound to the surviving sample size.
	Worlds int
}

// Size returns |Set|.
func (r *Result) Size() int { return len(r.Set) }

// Compute returns the typical cascade of node v using the cascades stored
// in the index.
func Compute(x *index.Index, v graph.NodeID, opts Options) Result {
	return ComputeWithScratch(x, v, opts, x.NewScratch())
}

// ComputeWithScratch is Compute reusing a caller-owned scratch, the hot path
// for query serving: a server keeps a pool of scratches and avoids the
// per-query allocation of index.NewScratch.
func ComputeWithScratch(x *index.Index, v graph.NodeID, opts Options, s *index.Scratch) Result {
	return computeUncanceled(x, []graph.NodeID{v}, opts, s)
}

// ComputeFromSet returns the typical cascade of a seed set (the paper's §5
// extension: the stability of a seed set is the expected cost of its typical
// cascade).
func ComputeFromSet(x *index.Index, seeds []graph.NodeID, opts Options) Result {
	return computeUncanceled(x, seeds, opts, x.NewScratch())
}

// computeUncanceled is computeWithScratch for the context-free entry points:
// under context.Background() it cannot fail.
func computeUncanceled(x *index.Index, seeds []graph.NodeID, opts Options, s *index.Scratch) Result {
	res, _ := computeWithScratch(context.Background(), x, seeds, opts, s, newMetricsSet(telemetryFor(x, opts)))
	return res
}

// computeWithScratch computes one typical cascade. Its only error is ctx's,
// observed between the held-out cost cascades.
func computeWithScratch(ctx context.Context, x *index.Index, seeds []graph.NodeID, opts Options, s *index.Scratch, m *metricsSet) (Result, error) {
	start := time.Now()
	med, worlds := sampleMedian(x, seeds, opts.Algorithm, s)
	if worlds == 0 {
		// Every world quarantined: there is no sample to take a median of.
		// Callers (the daemon) treat Worlds == 0 as "unserveable", distinct
		// from a sphere that happens to be empty.
		return Result{
			Seeds:        append([]graph.NodeID(nil), seeds...),
			SampleCost:   1,
			ExpectedCost: -1,
			MedianTime:   time.Since(start),
		}, nil
	}
	res := Result{
		Seeds:        append([]graph.NodeID(nil), seeds...),
		Set:          med.Set,
		SampleCost:   med.Cost,
		ExpectedCost: -1,
		MedianTime:   time.Since(start),
		Worlds:       worlds,
	}
	if opts.CostSamples > 0 {
		cs := time.Now()
		cost, _, err := EstimateCost(ctx, x.Graph(), seeds, med.Set, opts.CostSamples, opts.CostSeed,
			opts.Model, checkpoint.Budget{}, m.worldMetrics())
		if err != nil {
			return Result{}, err
		}
		res.ExpectedCost = cost
		res.CostTime = time.Since(cs)
	}
	m.observe(&res, med)
	return res, nil
}

// sampleMedian returns the median of seeds' cascades in the index's live
// worlds and how many worlds it was taken over; with no live world the
// median is meaningless. The default prefix median runs on the flat
// cascades in s's buffers; the other algorithms take one set per world.
func sampleMedian(x *index.Index, seeds []graph.NodeID, alg MedianAlgorithm, s *index.Scratch) (jaccard.Median, int) {
	if alg != MedianPrefix {
		samples := x.CascadesFromSet(seeds, s)
		return computeMedian(samples, alg), len(samples)
	}
	flat, off := x.CascadesFlat(seeds, s)
	return s.Prefix().PrefixFlat(flat, off, x.Graph().NumNodes()), len(off) - 1
}

func computeMedian(samples [][]graph.NodeID, alg MedianAlgorithm) jaccard.Median {
	switch alg {
	case MedianMajority:
		return jaccard.Majority(samples, 0.5)
	case MedianExact:
		return jaccard.Exact(samples)
	case MedianPrefixRefined:
		return jaccard.PrefixRefined(samples)
	default:
		return jaccard.Prefix(samples)
	}
}

// EstimateCost estimates ρ_{G,seeds}(set): the expected Jaccard distance
// between set and a fresh random cascade from seeds under the given
// propagation model. It draws `samples` cascades with generators split from
// seed, so estimates are reproducible and independent of the index. IC
// cascades are drawn lazily (without materializing worlds); LT cascades
// materialize one live-edge world per sample (LT's one-in-edge coupling
// cannot be sampled edge-by-edge during a forward traversal). wm (nil
// allowed) meters the sampled cascades.
//
// Sampling stops when ctx is canceled — checked between cascades — or when
// the budget's deadline is too near to fit another cascade. It returns the
// mean Jaccard distance over the achieved samples and how many completed.
// When the deadline truncates sampling but the budget's minimum is met, the
// result is usable and err is a *checkpoint.PartialError carrying the
// achieved count and the Theorem-2-style error bound; below the minimum the
// error is hard. A zero budget is the plain run. samples <= 0 returns -1.
func EstimateCost(ctx context.Context, g *graph.Graph, seeds, set []graph.NodeID, samples int, seed uint64,
	model index.Model, budget checkpoint.Budget, wm *worlds.Metrics) (float64, int, error) {
	if samples <= 0 {
		return -1, 0, nil
	}
	// A Runner without a checkpoint path is just the budget gate.
	r, _, err := checkpoint.Start(checkpoint.Config{Budget: budget}, nil, samples, nil)
	if err != nil {
		return 0, 0, err
	}
	master := rng.New(seed)
	visited := make([]bool, g.NumNodes())
	var buf []graph.NodeID
	total := 0.0
	achieved := 0
	var runErr error
	for ; achieved < samples; achieved++ {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		if runErr = r.Gate(); runErr != nil {
			break
		}
		rs := master.Split(uint64(achieved))
		if model == index.LT {
			w := worlds.SampleLTMetered(g, rs, wm)
			buf = w.ReachableFromSet(seeds, visited, buf[:0])
		} else {
			buf = worlds.SampleCascadeFromSetMetered(g, seeds, rs, visited, buf[:0], wm)
		}
		total += jaccard.Distance(set, buf)
		r.MarkDone(achieved)
	}
	if err := r.Settle(runErr); err != nil {
		if !errors.Is(err, checkpoint.ErrPartial) {
			return 0, achieved, err
		}
		return total / float64(achieved), achieved, err
	}
	return total / float64(samples), samples, nil
}

// ComputeAll computes the typical cascade of every node (Algorithm 2),
// parallelized across Options.Workers. Results are indexed by node id.
// Workers check ctx between nodes and between the held-out cost cascades,
// so a canceled context returns ctx.Err() promptly with a nil result.
// Worker panics are recovered into a *pool.PanicError.
//
// cfg puts the sweep under the crash-safe execution layer; its zero value is
// the plain sweep. With cfg.Path set, each node's computed sphere is
// periodically checkpointed, so a crash, OOM-kill, cancellation, or deadline
// loses at most one flush interval of the sweep. The checkpoint is keyed on
// the index fingerprint (plus the options), so resuming against a different
// index is rejected as stale. A rerun with the same index and options
// produces spheres bit-identical to an uninterrupted sweep — each node's
// computation depends only on the index and its own derived cost seed.
//
// With cfg.Budget.Deadline set, the sweep stops when the deadline nears and
// returns the partial result with a *checkpoint.PartialError: results are
// still indexed by node id, and nodes that were not reached have a nil Seeds
// field (callers report or skip them); the checkpoint is kept so a later run
// finishes the rest.
func ComputeAll(ctx context.Context, x *index.Index, opts Options, cfg checkpoint.Config) ([]Result, error) {
	n := x.Graph().NumNodes()
	out := make([]Result, n)
	r, st, err := checkpoint.Start(cfg, func() uint64 { return sweepFingerprint(x, opts) }, n,
		func(done *checkpoint.Bitmap) ([]byte, error) { return encodeSweepPayload(out, done) })
	if err != nil {
		return nil, err
	}
	var resumed *checkpoint.Bitmap // nil: nothing resumed
	if st != nil {
		if err := decodeSweepPayload(st, n, out); err != nil {
			r.Abort()
			return nil, err
		}
		resumed = st.Done
	}

	workers := pool.Workers(opts.Workers, n)
	scratches := make([]*index.Scratch, workers)
	if opts.Telemetry == nil {
		opts.Telemetry = cfg.Telemetry
	}
	tel := telemetryFor(x, opts)
	m := newMetricsSet(tel)
	sp := tel.StartSpan("core.compute_all")
	runErr := pool.Run(ctx, n, pool.Options{Workers: workers, Progress: opts.Progress, Telemetry: tel},
		func(worker, task int) error {
			if resumed.Get(task) {
				return nil
			}
			if err := r.Gate(); err != nil {
				return err
			}
			s := scratches[worker]
			if s == nil {
				s = x.NewScratch()
				scratches[worker] = s
			}
			v := graph.NodeID(task)
			o := opts
			if o.CostSamples > 0 {
				// Derive a distinct, stable cost seed per node so the
				// held-out estimates are independent across nodes.
				o.CostSeed = rng.Mix64(opts.CostSeed ^ uint64(v))
			}
			res, err := computeWithScratch(ctx, x, []graph.NodeID{v}, o, s, m)
			if err != nil {
				return err
			}
			out[v] = res
			sp.AddUnits(1)
			r.MarkDone(task)
			return nil
		})
	sp.End()
	if err := r.Settle(runErr); err != nil {
		if !errors.Is(err, checkpoint.ErrPartial) {
			return nil, err
		}
		return out, err
	}
	return out, nil
}
