// Package sketch implements combined bottom-k reachability sketches over
// the sampled possible worlds of a cascade index (Cohen 1997; Cohen,
// Delling, Pajor, Werneck, CIKM 2014). Every (node u, world i) pair gets a
// random rank; node v's combined sketch is the k smallest ranks among all
// pairs {(u, i) : u reachable from v in world i}. From it,
//
//	Σ_i |R_i(v)| ≈ (k-1)/ρ_k   (exact when the sketch holds < k ranks),
//
// where ρ_k is the k-th smallest rank mapped to [0,1), so expected spread
// and sphere magnitude are the estimate divided by the number of live
// worlds. Seed-set spread comes from merging seed sketches (the bottom-k of
// a union is the bottom-k of the union of bottom-k's), which powers the
// SKIM-style sketch-space greedy in internal/infmax.
//
// Construction is one reverse-reachability rank pass per world over the
// index's condensation DAGs — O(Σ_i (|V_i^c| + |E_i^c|) · k) — instead of
// the worlds × nodes dense extraction, which is the asymptotic win: build
// cost and sketch size are near-linear in the index, not quadratic in the
// graph.
//
// Estimates carry Cohen-style (ε, δ) relative-error bounds: the k-th order
// statistic of uniform ranks concentrates, giving |est − exact| ≤ ε·exact
// with probability 1−δ for ε = sqrt(6·ln(2/δ)/(k−1)) (bound.BottomK, the
// one derivation served answers and the conformance suite share).
package sketch

import (
	"context"
	"fmt"
	"math"
	"slices"

	"soi/internal/bound"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// DefaultK is the sketch size used when Options.K is zero: large enough
// that the relative error sqrt(6·ln(2/δ)/(k−1)) at δ=0.05 is ≈ 0.59, small
// enough that sketches stay tiny next to the index.
const DefaultK = 64

// Options configures Build.
type Options struct {
	// K is the sketch size (bottom-k); 0 selects DefaultK. Must be >= 2:
	// the estimator (k-1)/ρ_k needs a spare order statistic.
	K int
	// Seed drives the rank hashes. Two sketches of the same index with the
	// same K and Seed are identical.
	Seed uint64
}

// Sketch holds the combined bottom-k reachability sketches of every node of
// one index. It is immutable after Build/Read and safe for concurrent use.
type Sketch struct {
	nodes  int
	worlds int // worlds of the source index, including quarantined ones
	live   int // worlds that contributed ranks
	k      int
	seed   uint64
	fp     uint64 // Fingerprint of the source index

	// CSR: node v's ascending rank list is ranks[off[v]:off[v+1]],
	// strictly ascending, at most k long.
	off   []int32
	ranks []uint64

	tel *telemetry.Registry
}

// Build constructs combined sketches over every live world of x. The result
// is deterministic given (index contents, K, Seed), independent of the
// worker count (GOMAXPROCS). The parallel phases check ctx between tasks, and a canceled context
// returns ctx.Err(). The registry ctx carries (telemetry.FromContext)
// receives the build counters and the rank passes' pool utilization, and is
// attached to the sketch, as by SetTelemetry. The "sketch.build" span opens
// under the span ctx carries.
func Build(ctx context.Context, x *index.Index, opts Options) (*Sketch, error) {
	k := opts.K
	if k == 0 {
		k = DefaultK
	}
	if k < 2 {
		return nil, fmt.Errorf("sketch: k must be >= 2, got %d", k)
	}
	ctx, sp := trace.StartChild(ctx, "sketch.build")
	defer sp.End()
	n := x.Graph().NumNodes()
	worlds := x.NumWorlds()
	tel := telemetry.FromContext(ctx)
	// The merge and freeze phases are bookkeeping, not pool work to meter.
	unmetered := telemetry.NewContext(ctx, nil)

	// Per-node bottom-k accumulators: heap[v*k : v*k+cnt[v]] is a max-heap
	// of the k smallest ranks seen for v so far.
	heaps := make([]uint64, n*k)
	cnt := make([]int32, n)

	type pass struct {
		scratch index.RankScratch
		comp    []int32
		ok      bool
	}
	workers := pool.Workers(0, worlds)
	batch := workers
	passes := make([]pass, batch)
	live := 0
	for base := 0; base < worlds; base += batch {
		m := batch
		if base+m > worlds {
			m = worlds - base
		}
		// Phase 1: independent per-world rank passes, in parallel.
		err := pool.Run(ctx, m, pool.Options{Workers: workers},
			func(_, j int) error {
				i := base + j
				wseed := rng.Mix64(opts.Seed ^ uint64(i)<<20)
				comp, ok := x.WorldReachRanks(i, k, func(v int32) uint64 {
					return rng.Mix64(wseed ^ uint64(v)*0x9E3779B97F4A7C15)
				}, &passes[j].scratch)
				passes[j].comp, passes[j].ok = comp, ok
				return nil
			})
		if err != nil {
			return nil, err
		}
		// Phase 2: merge the batch into the per-node accumulators, each
		// worker owning a disjoint node range (no locks, and each node sees
		// the worlds in a fixed order, so the result is worker-independent).
		err = pool.Run(unmetered, workers, pool.Options{Workers: workers},
			func(_, r int) error {
				lo, hi := n*r/workers, n*(r+1)/workers
				for j := 0; j < m; j++ {
					p := &passes[j]
					if !p.ok {
						continue
					}
					for v := lo; v < hi; v++ {
						mergeHeap(heaps[v*k:v*k+k], &cnt[v], p.scratch.List(p.comp[v]))
					}
				}
				return nil
			})
		if err != nil {
			return nil, err
		}
		for j := 0; j < m; j++ {
			if passes[j].ok {
				live++
			}
			// Keep the scratch arenas: slot j serves one world per batch, so
			// after the first batch every pass is allocation-free.
			passes[j].comp, passes[j].ok = nil, false
		}
	}

	// Freeze: sort each accumulator ascending and pack into CSR.
	total := 0
	for v := 0; v < n; v++ {
		total += int(cnt[v])
	}
	if total > math.MaxInt32 {
		return nil, fmt.Errorf("sketch: %d ranks overflow the int32 offset space; lower k", total)
	}
	s := &Sketch{
		nodes:  n,
		worlds: worlds,
		live:   live,
		k:      k,
		seed:   opts.Seed,
		fp:     x.Fingerprint(),
		off:    make([]int32, n+1),
		ranks:  make([]uint64, total),
		tel:    tel,
	}
	for v := 0; v < n; v++ {
		s.off[v+1] = s.off[v] + cnt[v]
	}
	err := pool.Run(unmetered, workers, pool.Options{Workers: workers},
		func(_, r int) error {
			for v := n * r / workers; v < n*(r+1)/workers; v++ {
				row := s.ranks[s.off[v]:s.off[v+1]]
				copy(row, heaps[v*k:v*k+int(cnt[v])])
				slices.Sort(row)
			}
			return nil
		})
	if err != nil {
		return nil, err
	}
	tel.Counter("sketch.build.worlds").Add(int64(worlds))
	tel.Counter("sketch.build.ranks").Add(int64(total))
	return s, nil
}

// mergeHeap folds an ascending rank list into a node's bottom-k max-heap.
// Ranks from different worlds are hashes of distinct (node, world) pairs,
// so ties are kept (they are distinct elements of the multiset).
func mergeHeap(h []uint64, cnt *int32, s []uint64) {
	k := int32(len(h))
	for _, r := range s {
		if *cnt < k {
			h[*cnt] = r
			siftUp(h, int(*cnt))
			*cnt++
			continue
		}
		if r >= h[0] {
			return // s ascends: nothing later can displace the max either
		}
		h[0] = r
		siftDown(h[:k], 0)
	}
}

func siftUp(h []uint64, i int) {
	for i > 0 {
		p := (i - 1) / 2
		if h[p] >= h[i] {
			return
		}
		h[p], h[i] = h[i], h[p]
		i = p
	}
}

func siftDown(h []uint64, i int) {
	for {
		l, r := 2*i+1, 2*i+2
		big := i
		if l < len(h) && h[l] > h[big] {
			big = l
		}
		if r < len(h) && h[r] > h[big] {
			big = r
		}
		if big == i {
			return
		}
		h[i], h[big] = h[big], h[i]
		i = big
	}
}

// Nodes returns the node count of the sketched graph.
func (s *Sketch) Nodes() int { return s.nodes }

// Worlds returns the world count of the source index, quarantined included.
func (s *Sketch) Worlds() int { return s.worlds }

// LiveWorlds returns how many worlds contributed ranks — the denominator of
// every spread estimate.
func (s *Sketch) LiveWorlds() int { return s.live }

// K returns the sketch size.
func (s *Sketch) K() int { return s.k }

// Seed returns the rank-hash seed the sketch was built with.
func (s *Sketch) Seed() uint64 { return s.seed }

// IndexFingerprint returns the Fingerprint of the index the sketch was
// built from; loaders refuse to serve a sketch against any other index.
func (s *Sketch) IndexFingerprint() uint64 { return s.fp }

// SetTelemetry attaches a registry (typically to a sketch loaded from disk,
// which has none) so the context-free selection over it
// (infmax.SelectSeedsSketch) can be metered.
func (s *Sketch) SetTelemetry(reg *telemetry.Registry) { s.tel = reg }

// Telemetry returns the attached registry (possibly nil).
func (s *Sketch) Telemetry() *telemetry.Registry { return s.tel }

// NodeRanks returns node v's ascending bottom-k rank list. The slice
// aliases the sketch's backing array: callers must not modify it.
func (s *Sketch) NodeRanks(v graph.NodeID) []uint64 {
	return s.ranks[s.off[v]:s.off[v+1]]
}

// MemoryFootprint returns the approximate resident size in bytes.
func (s *Sketch) MemoryFootprint() int64 {
	return int64(len(s.off))*4 + int64(len(s.ranks))*8
}

// Merge returns the ascending bottom-k union of two ascending rank lists.
// Equal ranks collapse to one: a rank is a hash of its (node, world) pair,
// so equality means the same pair arrived through both arguments. Merge is
// commutative, associative, and idempotent — the algebra the combined
// sketch and the sketch-space greedy rely on.
func Merge(k int, a, b []uint64) []uint64 {
	out := make([]uint64, 0, min(k, len(a)+len(b)))
	i, j := 0, 0
	for len(out) < k && (i < len(a) || j < len(b)) {
		switch {
		case j >= len(b) || (i < len(a) && a[i] < b[j]):
			out = append(out, a[i])
			i++
		case i >= len(a) || b[j] < a[i]:
			out = append(out, b[j])
			j++
		default: // equal: one element
			out = append(out, a[i])
			i, j = i+1, j+1
		}
	}
	return out
}

// rankScale maps a uint64 rank to (0,1]: ρ = (rank+1)/2^64, so the
// smallest possible rank is still a positive fraction.
const rankScale = 1.0 / (1 << 32) / (1 << 32)

// EstimateFromRanks is the bottom-k cardinality estimator applied to an
// ascending rank list: exact when the list holds fewer than k ranks (it is
// then the whole reachability multiset), (k−1)/ρ_k otherwise.
func (s *Sketch) EstimateFromRanks(ranks []uint64) float64 {
	if len(ranks) < s.k {
		return float64(len(ranks))
	}
	rho := (float64(ranks[s.k-1]) + 1) * rankScale
	return float64(s.k-1) / rho
}

// SpreadFromRanks converts a merged rank list to expected-spread units:
// the estimated Σ_i |R_i(S)| divided by the live world count.
func (s *Sketch) SpreadFromRanks(ranks []uint64) float64 {
	if s.live == 0 {
		return 0
	}
	return s.EstimateFromRanks(ranks) / float64(s.live)
}

// EstimateSpread estimates the expected spread of a seed set over the
// index's live worlds by merging the seeds' sketches.
func (s *Sketch) EstimateSpread(seeds []graph.NodeID) float64 {
	return s.SpreadFromRanks(s.MergedRanks(seeds))
}

// MergedRanks returns the ascending bottom-k union of the seeds' sketches.
func (s *Sketch) MergedRanks(seeds []graph.NodeID) []uint64 {
	if len(seeds) == 0 {
		return nil
	}
	merged := s.NodeRanks(seeds[0])
	for _, v := range seeds[1:] {
		merged = Merge(s.k, merged, s.NodeRanks(v))
	}
	return merged
}

// EstimateSphereSize estimates the expected sphere magnitude of v — the
// expected cascade size E_i[|R_i(v)|] over the index's live worlds. (The
// typical-cascade sphere of internal/core is a median-like set; its
// expected size is what a cardinality sketch can see.)
func (s *Sketch) EstimateSphereSize(v graph.NodeID) float64 {
	return s.SpreadFromRanks(s.NodeRanks(v))
}

// ErrorBound returns the additive error bound reported alongside a sketch
// estimate in query responses: the bottom-k relative error at
// bound.ServingDelta scaled by the estimate itself. The min(1, ·) reaches
// only k below bound.MinBottomK, where the derivation does not hold: the
// daemons refuse such a sketch (CheckServable), but the library still
// builds one, and the wire golden pins a k = 8 sketch's answers.
func (s *Sketch) ErrorBound(estimate float64) float64 {
	return min(1, bound.BottomK(s.k, bound.ServingDelta).Eps) * estimate
}

// CheckServable refuses a sketch size k whose bottom-k bound at
// bound.ServingDelta lies outside the derivation (ε > 1): there a served
// min(1, ε)·estimate misses the truth more often than δ allows.
func CheckServable(k int) error {
	if kmin := bound.MinBottomK(bound.ServingDelta); k < kmin {
		return fmt.Errorf("sketch k=%d is too small to serve: its bottom-k error bound at delta=%g needs k >= %d",
			k, bound.ServingDelta, kmin)
	}
	return nil
}
