package infmax

import (
	"context"
	"fmt"
	"math"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// Automatic RR-set budgeting after TIM (Tang, Xiao & Shi, SIGMOD 2014).
//
// TIM's first phase estimates KPT — a lower bound on the optimal expected
// spread OPT — by sampling RR sets of geometrically growing batches and
// testing a width statistic; the second phase sizes the RR sample as
//
//	θ = λ / KPT,   λ = (8 + 2ε) n (ℓ ln n + ln C(n,k) + ln 2) ε⁻²
//
// which suffices for a (1 - 1/e - ε)-approximation with probability
// 1 - n^(-ℓ). This implementation follows that recipe with ℓ = 1 and a
// hard cap on θ so adversarial inputs cannot demand unbounded memory.

// RRAutoOptions configures the self-budgeting RR method.
type RRAutoOptions struct {
	// Epsilon is the approximation slack ε in (0,1); smaller means more RR
	// sets. The TIM paper uses 0.1-0.5.
	Epsilon float64
	// MaxSets caps θ (0 selects 2,000,000).
	MaxSets int
	// Seed drives the sampling.
	Seed uint64
}

// RRAuto selects k seeds with the RR sketch under model, choosing the number of RR sets
// automatically from the graph via TIM's KPT estimation. It returns the
// selection and the θ it settled on. ctx is checked during both TIM phases
// (KPT estimation and the θ-sized RR sampling), so a canceled context
// returns ctx.Err() promptly.
func RRAuto(ctx context.Context, g *graph.Graph, k int, opts RRAutoOptions, model worlds.Model) (Selection, int, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, 0, err
	}
	if opts.Epsilon <= 0 || opts.Epsilon >= 1 {
		return Selection{}, 0, fmt.Errorf("infmax: Epsilon must be in (0,1), got %v", opts.Epsilon)
	}
	maxSets := opts.MaxSets
	if maxSets <= 0 {
		maxSets = 2_000_000
	}
	n := g.NumNodes()
	m := g.NumEdges()
	if m == 0 {
		// Edgeless graph: any k nodes, one RR set per node suffices.
		sel, err := RR(ctx, g, k, RROptions{Sets: n, Seed: opts.Seed}, model, checkpoint.Config{})
		return sel, n, err
	}

	kpt, err := estimateKPT(ctx, g, k, opts.Seed, model)
	if err != nil {
		return Selection{}, 0, err
	}
	lambda := (8 + 2*opts.Epsilon) * float64(n) *
		(math.Log(float64(n)) + logChoose(n, k) + math.Ln2) /
		(opts.Epsilon * opts.Epsilon)
	theta := int(lambda / kpt)
	if theta < n {
		theta = n
	}
	if theta > maxSets {
		theta = maxSets
	}
	sel, err := RR(ctx, g, k, RROptions{Sets: theta, Seed: opts.Seed ^ 0x7133}, model, checkpoint.Config{})
	return sel, theta, err
}

// estimateKPT implements TIM's Algorithm 2 (KptEstimation): for rounds
// i = 1.. it draws c_i RR sets; the width statistic κ(R) = 1-(1-w(R)/m)^k
// (w = total in-degree of the RR set) has mean ≥ KPT/n when KPT is large.
// The first round whose mean statistic exceeds 2^(-i) yields the estimate.
// ctx is checked between RR-set draws.
func estimateKPT(ctx context.Context, g *graph.Graph, k int, seed uint64, model worlds.Model) (float64, error) {
	n := g.NumNodes()
	m := float64(g.NumEdges())
	in := g.InDegrees()
	smp := worlds.NewSampler(g, model)
	master := rng.New(seed)
	var buf []graph.NodeID

	logN := math.Log2(float64(n))
	drawn := uint64(0)
	for i := 1; float64(i) < logN; i++ {
		ci := int(6*math.Log(float64(n))/math.Ln2*logN+6*math.Log(float64(n))) * (1 << uint(i-1))
		if ci < 1 {
			ci = 1
		}
		sum := 0.0
		for j := 0; j < ci; j++ {
			if err := ctx.Err(); err != nil {
				return 0, err
			}
			drawn++
			r := master.Split(drawn)
			target := graph.NodeID(r.Intn(n))
			buf = smp.Reverse(target, r, buf[:0])
			width := 0
			for _, v := range buf {
				width += in[v]
			}
			kappa := 1 - math.Pow(1-float64(width)/m, float64(k))
			sum += kappa
		}
		if mean := sum / float64(ci); mean > 1/math.Pow(2, float64(i)) {
			return float64(n) * mean / 2, nil
		}
	}
	return 1, nil // subcritical fallback: every cascade is about a single node
}

// logChoose returns ln C(n, k) via the log-gamma-free telescoping product.
func logChoose(n, k int) float64 {
	if k < 0 || k > n {
		return 0
	}
	if k > n-k {
		k = n - k
	}
	total := 0.0
	for i := 1; i <= k; i++ {
		total += math.Log(float64(n-k+i)) - math.Log(float64(i))
	}
	return total
}
