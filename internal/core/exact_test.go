package core

import (
	"math"
	"testing"

	"soi/internal/bound"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/statcheck"
)

// TestConformanceTypicalCascadeFigure1 computes the *exact* optimal typical
// cascade of the paper's Figure-1 graph with the oracle's possible-world
// engine (2^7 worlds x 2^5 candidate sets) and checks that (a) the paper's
// worked Example-1 probabilities hold exactly, and (b) the sampled solvers
// converge to the exact optimum within the Theorem-2 (ERM) bound — the
// guarantee itself, checked against ground truth with no hand-tuned slack.
func TestConformanceTypicalCascadeFigure1(t *testing.T) {
	g := paperGraph(t)
	src := graph.NodeID(4) // v5
	dist, err := oracle.CascadeDistribution(g, []graph.NodeID{src})
	if err != nil {
		t.Fatal(err)
	}

	// Probabilities must sum to 1 and match Example 1 exactly.
	statcheck.Numeric(t, "total probability", dist.TotalProb(), 1, 1<<7)
	if got := dist.Prob([]graph.NodeID{0, 4}); math.Abs(got-0.2646) > 1e-12 {
		t.Fatalf("Pr[{v5,v1}] = %v, want 0.2646", got)
	}
	if got := dist.Prob([]graph.NodeID{1, 3, 4}); math.Abs(got-0.036936) > 1e-12 {
		t.Fatalf("Pr[{v5,v2,v4}] = %v, want 0.036936", got)
	}
	if got := dist.Prob([]graph.NodeID{0, 2, 3, 4}); got != 0 {
		t.Fatalf("impossible cascade (v3 only reachable via v2) has probability %v", got)
	}

	// Exact optimum over all candidate sets.
	bestSet, bestCost, err := dist.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("exact optimum: %v with rho = %v", bestSet, bestCost)

	// The sampled solver with exhaustive median search minimizes the
	// empirical cost over all 2^n candidate sets, so the ERM bound applies:
	// rho(median) <= rho(C*) + 2*eps_union(2^n) with probability 1-delta
	// over the index sampling — and deterministically at this fixed seed.
	const ell = 4000
	x := buildIndex(t, g, ell, 51)
	res := Compute(x, src, Options{Algorithm: MedianExact})
	erm := bound.ERM(ell, 1<<5, statcheck.DefaultDelta)
	statcheck.AtMost(t, "exact-search sampled median", dist.Rho(res.Set), bestCost, erm)

	// The default prefix algorithm is not an empirical minimizer, but its
	// measured empirical suboptimality gap vs the exact-search median
	// transfers to the true cost through the same uniform-convergence
	// argument: rho(prefix) <= rho(C*) + gap + 2*eps_union.
	resPrefix := Compute(x, src, Options{})
	gap := resPrefix.SampleCost - res.SampleCost
	if gap < 0 {
		t.Fatalf("prefix empirical cost %v beats the exhaustive empirical optimum %v",
			resPrefix.SampleCost, res.SampleCost)
	}
	statcheck.AtMost(t, "prefix sampled median", dist.Rho(resPrefix.Set), bestCost+gap, erm)
}
