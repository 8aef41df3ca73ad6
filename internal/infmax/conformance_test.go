package infmax

import (
	"context"
	"math"
	"testing"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/statcheck"
	"soi/internal/worlds"
)

// conformanceGraph is a fixed 8-node network small enough for the spread
// oracle (12 uncertain edges -> 4096 worlds) yet with enough overlap between
// spheres that greedy choices actually matter: two hubs (0 and 4) share
// downstream audience {2, 3}, and a chain 5->6->7 rewards the second seed.
func conformanceGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(8)
	b.AddEdge(0, 1, 0.6)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(0, 3, 0.4)
	b.AddEdge(4, 2, 0.5)
	b.AddEdge(4, 3, 0.6)
	b.AddEdge(4, 5, 0.3)
	b.AddEdge(1, 2, 0.3)
	b.AddEdge(3, 5, 0.2)
	b.AddEdge(5, 6, 0.7)
	b.AddEdge(6, 7, 0.7)
	b.AddEdge(2, 7, 0.2)
	b.AddEdge(7, 1, 0.3)
	return b.MustBuild()
}

const oneMinusInvE = 1 - 1/math.E

// trueSpread evaluates the exact expected spread of a selection.
func trueSpread(t *testing.T, o *oracle.SpreadOracle, seeds []graph.NodeID) float64 {
	t.Helper()
	s, err := o.Spread(seeds)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

// TestConformanceStdSeedQuality holds the index-based greedy to the
// submodularity guarantee against the *exact* optimum: greedy on the
// empirical spread with uniform error n*eps over all 2^n seed sets obeys
//
//	sigma(greedy) >= (1-1/e)*sigma(opt) - 2*n*eps,
//
// eps from Hoeffding at the index sample count, union over all 2^n sets.
func TestConformanceStdSeedQuality(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	const ell = 20000
	x := buildIndex(t, g, ell, 61)
	uniform := bound.Hoeffding(ell, statcheck.DefaultDelta).Union(1 << n).Scale(2 * float64(n))
	for k := 1; k <= 3; k++ {
		_, opt, err := o.OptimalSeedSet(k)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := Std(context.Background(), x, k)
		if err != nil {
			t.Fatal(err)
		}
		statcheck.AtLeast(t, "Std seed quality", trueSpread(t, o, sel.Seeds),
			oneMinusInvE*opt, uniform)
	}
}

// TestConformanceStdMCSeedQuality is the same floor for the Monte-Carlo
// greedy. Each of the at most n*k gain evaluations uses fresh simulations,
// so the per-evaluation spread error is n*eps with eps union-bounded over
// n*k evaluations; noisy greedy loses at most 2*k times that:
//
//	sigma(greedy) >= (1-1/e)*sigma(opt) - 2*k*n*eps.
func TestConformanceStdMCSeedQuality(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	const trials = 20000
	const k = 2
	_, opt, err := o.OptimalSeedSet(k)
	if err != nil {
		t.Fatal(err)
	}
	sel, err := StdMC(context.Background(), g, k, MCOptions{Trials: trials, Seed: 62})
	if err != nil {
		t.Fatal(err)
	}
	perEval := bound.Hoeffding(trials, statcheck.DefaultDelta).Union(n * k).Scale(float64(n))
	statcheck.AtLeast(t, "StdMC seed quality", trueSpread(t, o, sel.Seeds),
		oneMinusInvE*opt, perEval.Scale(2*k))
}

// TestConformanceRRSeedQuality: the RR estimator's spread for any set is
// n * (fraction of RR sets hit), a mean of Sets Bernoulli draws scaled to
// [0, n], so the Std derivation applies verbatim with ell = Sets.
func TestConformanceRRSeedQuality(t *testing.T) {
	g := conformanceGraph(t)
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	n := g.NumNodes()
	const sets = 20000
	uniform := bound.Hoeffding(sets, statcheck.DefaultDelta).Union(1 << n).Scale(2 * float64(n))
	for k := 1; k <= 3; k++ {
		_, opt, err := o.OptimalSeedSet(k)
		if err != nil {
			t.Fatal(err)
		}
		sel, err := RR(context.Background(), g, k, RROptions{Sets: sets, Seed: 63}, worlds.IC, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		statcheck.AtLeast(t, "RR seed quality", trueSpread(t, o, sel.Seeds),
			oneMinusInvE*opt, uniform)
	}
}

// TestConformanceTCCoverageGuarantee feeds InfMax_TC the *exact* optimal
// typical cascade of every singleton (from the oracle, not from samples) and
// checks the deterministic max-cover guarantee against the exhaustive
// coverage optimum: cover(greedy) >= (1-1/e) * cover(opt), with no
// statistical slack at all.
func TestConformanceTCCoverageGuarantee(t *testing.T) {
	g := conformanceGraph(t)
	n := g.NumNodes()
	spheres := make(Spheres, n)
	masks := make([]uint64, n)
	for v := 0; v < n; v++ {
		set, _, err := oracle.OptimalTypicalCascade(g, []graph.NodeID{graph.NodeID(v)})
		if err != nil {
			t.Fatal(err)
		}
		spheres[v] = set
		masks[v] = oracle.MaskOf(set)
	}
	for k := 1; k <= 3; k++ {
		// Exhaustive max-cover optimum over all k-subsets of seed nodes.
		best := 0
		for mask := uint64(0); mask < 1<<n; mask++ {
			if popcount64(mask) != k {
				continue
			}
			var cover uint64
			for v := 0; v < n; v++ {
				if mask&(1<<v) != 0 {
					cover |= masks[v]
				}
			}
			if c := popcount64(cover); c > best {
				best = c
			}
		}
		sel, err := TC(context.Background(), g, spheres, k, TCOptions{})
		if err != nil {
			t.Fatal(err)
		}
		if got := sel.Objective(); got < oneMinusInvE*float64(best)-1e-12 {
			t.Errorf("k=%d: TC covers %.6g < (1-1/e)*%d = %.6g", k, got, best, oneMinusInvE*float64(best))
		}
	}
}

func popcount64(x uint64) int {
	n := 0
	for ; x != 0; x &= x - 1 {
		n++
	}
	return n
}
