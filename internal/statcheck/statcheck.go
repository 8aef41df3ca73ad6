// Package statcheck asserts that sampling estimators agree with exact
// (oracle) answers within tolerances *derived* from concentration bounds —
// never tuned by hand. The derivations (Hoeffding, bottom-k, their unions,
// scalings and sums, the ERM guarantee) live in internal/bound, which the
// daemons call too, so a test tolerance and a served error bound are the
// same arithmetic. A failing assertion prints the bound's full derivation,
// so the failure is an argument, not a mystery.
//
// Tests fix their sampling seeds, so each assertion evaluates one
// pre-drawn sample of the estimator's distribution: the suite is
// deterministic by construction, and the choice of seed was "unlucky" with
// probability at most δ (DefaultDelta, passed to each derivation). A
// conformance test that passes once passes forever.
package statcheck

import (
	"math"
	"testing"

	"soi/internal/bound"
)

// DefaultDelta is the failure probability δ each derived bound allows the
// fixed seed to have been unlucky with. At 1e-6, a suite of a thousand
// assertions mislabels a correct estimator with probability < 1e-3 at
// seed-selection time — and deterministically never thereafter.
const DefaultDelta = 1e-6

// Close asserts |got - want| <= b.Eps, failing with the full derivation.
func Close(t testing.TB, name string, got, want float64, b bound.Bound) {
	t.Helper()
	if diff := math.Abs(got - want); diff > b.Eps {
		t.Errorf("%s: estimate %.6g vs exact %.6g differs by %.6g > eps %.6g\n  (%s; delta=%.3g, ell=%d)",
			name, got, want, diff, b.Eps, b.Derivation, b.Delta, b.Ell)
	}
}

// AtMost asserts got <= limit + b.Eps — the one-sided form used for
// "estimator cost exceeds the optimum by at most the sampling slack".
func AtMost(t testing.TB, name string, got, limit float64, b bound.Bound) {
	t.Helper()
	if got > limit+b.Eps {
		t.Errorf("%s: value %.6g exceeds limit %.6g + eps %.6g = %.6g\n  (%s; delta=%.3g, ell=%d)",
			name, got, limit, b.Eps, limit+b.Eps, b.Derivation, b.Delta, b.Ell)
	}
}

// AtLeast asserts got >= limit - b.Eps — the one-sided form used for
// approximation floors like the greedy (1-1/e) guarantee.
func AtLeast(t testing.TB, name string, got, limit float64, b bound.Bound) {
	t.Helper()
	if got < limit-b.Eps {
		t.Errorf("%s: value %.6g falls below limit %.6g - eps %.6g = %.6g\n  (%s; delta=%.3g, ell=%d)",
			name, got, limit, b.Eps, limit-b.Eps, b.Derivation, b.Delta, b.Ell)
	}
}

// InMargin reports whether exact lies within eps of a decision threshold.
// Threshold queries (reliability search membership) can only be asserted
// for nodes whose exact probability clears the threshold by more than the
// sampling tolerance; callers skip the nodes InMargin reports true for.
func InMargin(exact, threshold float64, b bound.Bound) bool {
	return math.Abs(exact-threshold) <= b.Eps
}

// Numeric asserts two float64s agree up to accumulated round-off from ops
// floating-point operations: tolerance = ops · 2⁻⁵² · max(1, |want|). This
// is for *deterministic* recomputations (two code paths summing the same
// terms), where the allowance is structural — machine epsilon times the
// operation count — not a tuned constant.
func Numeric(t testing.TB, name string, got, want float64, ops int) {
	t.Helper()
	if ops < 1 {
		ops = 1
	}
	tol := float64(ops) * 0x1p-52 * math.Max(1, math.Abs(want))
	if diff := math.Abs(got - want); diff > tol {
		t.Errorf("%s: %.17g vs %.17g differs by %.3g > round-off tolerance %.3g (%d ops * 2^-52 * scale)",
			name, got, want, diff, tol, ops)
	}
}
