// Package bound derives the concentration bounds that sampled answers rest
// on, once, for the daemons and the conformance suite alike: Hoeffding for
// a mean of ℓ [0,1] samples (the shape of the paper's Theorem 2) and
// Cohen's bottom-k relative bound, composed by Union, Scale, Plus and ERM.
// A served error bound and a test tolerance are the same arithmetic. The
// package imports only the standard library, so soid and soigw link it
// without linking testing.
package bound

import (
	"fmt"
	"math"
)

// ServingDelta is the failure probability of every bound a daemon serves:
// budget truncation, world quarantine and sketch answers each hold with
// probability at least 0.95.
const ServingDelta = 0.05

// Bound is a derived statistical tolerance: |estimate - exact| <= Eps holds
// with probability at least 1-Delta over the estimator's sampling.
type Bound struct {
	Eps        float64 // tolerance: additive, or relative for BottomK until Scaled
	Ell        int     // sample count derived from (k for BottomK)
	Delta      float64 // allowed failure probability
	Candidates int     // union-bound multiplicity (1 = a single estimate)
	Derivation string  // human-readable formula trail, printed on failure

	// at evaluates the formula with δ split over m estimates; Union
	// re-derives through it, so a bound unions by its own formula.
	at func(m float64) float64
}

func derive(ell int, delta float64, at func(m float64) float64, formula string) Bound {
	if delta <= 0 || delta >= 1 {
		panic(fmt.Sprintf("bound: delta must be in (0,1), got %v", delta))
	}
	eps := at(1)
	return Bound{Eps: eps, Ell: ell, Delta: delta, Candidates: 1, at: at,
		Derivation: fmt.Sprintf(formula, delta, ell, eps)}
}

// Hoeffding returns the additive bound for the mean of ell independent
// [0,1] samples: ε = min(1, sqrt(ln(2/δ)/(2ℓ))). A [0,1] mean is never off
// by more than 1, so the clamp only keeps a tiny ℓ from a vacuous ε > 1.
func Hoeffding(ell int, delta float64) Bound {
	if ell < 1 {
		panic(fmt.Sprintf("bound: ell must be >= 1, got %d", ell))
	}
	return derive(ell, delta, func(m float64) float64 {
		return min(1, math.Sqrt(math.Log(2*m/delta)/(2*float64(ell))))
	}, "Hoeffding: eps = min(1, sqrt(ln(2/delta)/(2*ell))) = min(1, sqrt(ln(2/%.3g)/(2*%d))) = %.6g")
}

// BottomK returns the relative-error bound of the bottom-k cardinality
// estimator (k-1)/rho_k. The k-th smallest of m uniform ranks is a
// Beta(k, m-k+1) order statistic; Chernoff bounds on the binomial count of
// ranks below (1±ε)k/m give
//
//	P[|est - m| > ε·m] <= 2·exp(-(k-1)·ε²/6)   for ε <= 1,
//
// so ε = sqrt(6·ln(2/δ)/(k-1)) fails with probability at most δ (Cohen
// 1997). Outside ε <= 1 the derivation does not hold, and Eps is returned
// uncapped to show it. Scale by the exact cardinality for the additive form.
func BottomK(k int, delta float64) Bound {
	if k < 2 {
		panic(fmt.Sprintf("bound: bottom-k needs k >= 2, got %d", k))
	}
	return derive(k, delta, func(m float64) float64 {
		return math.Sqrt(6 * math.Log(2*m/delta) / float64(k-1))
	}, "bottom-k: relative eps = sqrt(6*ln(2/delta)/(k-1)) = sqrt(6*ln(2/%.3g)/(%d-1)) = %.6g")
}

// MinBottomK is the smallest k whose bottom-k bound at delta lies within
// the derivation (ε <= 1).
func MinBottomK(delta float64) int {
	k := 2
	for BottomK(k, delta).Eps > 1 {
		k++
	}
	return k
}

// Union tightens δ to δ/k so the bound holds simultaneously for k
// estimates (per-node reliability vectors, all candidate medians, every
// seed set a greedy might evaluate, ...), re-derived by the bound's own
// formula.
func (b Bound) Union(k int) Bound {
	if k < 1 {
		panic(fmt.Sprintf("bound: union multiplicity must be >= 1, got %d", k))
	}
	at := b.at
	b.at = func(m float64) float64 { return at(m * float64(k)) }
	b.Eps = b.at(1)
	b.Candidates *= k
	b.Derivation += fmt.Sprintf("; union over %d candidates: eps = %.6g", k, b.Eps)
	return b
}

// Scale stretches the bound to quantities ranging over [0, r], makes a
// relative bound additive (r = the exact value), or composes derivation
// factors (e.g. the 2ε of an ERM argument).
func (b Bound) Scale(r float64) Bound {
	if r <= 0 {
		panic(fmt.Sprintf("bound: scale must be > 0, got %v", r))
	}
	at := b.at
	b.at = func(m float64) float64 { return r * at(m) }
	b.Eps *= r
	b.Derivation += fmt.Sprintf("; scaled by range/factor %g: eps = %.6g", r, b.Eps)
	return b
}

// Plus composes two bounds that must hold simultaneously, e.g. world
// sampling (Hoeffding) plus sketch compression (bottom-k): the tolerances
// add, and so do the failure probabilities (a union over the two events).
func (b Bound) Plus(o Bound) Bound {
	at := b.at
	b.at = func(m float64) float64 { return at(m) + o.at(m) }
	b.Eps += o.Eps
	b.Delta += o.Delta
	b.Candidates += o.Candidates
	b.Derivation += "; plus [" + o.Derivation + "]: eps add, delta add (union of failure events)"
	return b
}

// ERM returns the empirical-risk-minimization bound over k candidates: if
// Ĉ minimizes the empirical cost over a candidate class of size k that
// contains the true optimum C*, then with probability 1-δ
//
//	cost(Ĉ) <= cost(C*) + 2·eps_union(k)
//
// because uniform convergence (union bound over all k candidates) bounds
// both |ĉost(Ĉ)-cost(Ĉ)| and |ĉost(C*)-cost(C*)|, and ĉost(Ĉ) <= ĉost(C*)
// by minimality. This is exactly the shape of the paper's Theorem-2
// guarantee for the sampled Jaccard median.
func ERM(ell, candidates int, delta float64) Bound {
	b := Hoeffding(ell, delta).Union(candidates).Scale(2)
	b.Derivation += "; ERM: true cost of the empirical minimizer is within 2*eps_union of the true optimum"
	return b
}
