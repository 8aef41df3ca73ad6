package oracle

import (
	"math"
	"reflect"
	"testing"

	"soi/internal/graph"
	"soi/internal/statcheck"
)

// figure1 is the paper's Figure-1 graph (5 nodes, 7 edges), whose Example 1
// works out exact cascade probabilities by hand.
func figure1(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	return b.MustBuild()
}

// singleEdge is the smallest nontrivial fixture: 0 -> 1 with probability p.
// Everything about it is computable by hand.
func singleEdge(t testing.TB, p float64) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, p)
	return b.MustBuild()
}

// diamond is the two-path fixture 0->1->3, 0->2->3, every edge p=0.5:
// rel(0,3) = 1 - (1 - 0.25)^2 = 0.4375 by inclusion-exclusion.
func diamond(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(4)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.5)
	b.AddEdge(1, 3, 0.5)
	b.AddEdge(2, 3, 0.5)
	return b.MustBuild()
}

func mustDist(t testing.TB, g *graph.Graph, seeds ...graph.NodeID) *Distribution {
	t.Helper()
	d, err := CascadeDistribution(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestOracleSingleEdgeHandComputed pins every oracle quantity of the
// one-edge fixture to its closed form.
func TestOracleSingleEdgeHandComputed(t *testing.T) {
	const p = 0.3
	g := singleEdge(t, p)
	d := mustDist(t, g, 0)

	if got := d.Prob([]graph.NodeID{0}); got != 1-p {
		t.Errorf("Pr[{0}] = %v, want %v", got, 1-p)
	}
	if got := d.Prob([]graph.NodeID{0, 1}); got != p {
		t.Errorf("Pr[{0,1}] = %v, want %v", got, p)
	}
	statcheck.Numeric(t, "total probability", d.TotalProb(), 1, 2)
	statcheck.Numeric(t, "expected spread", d.ExpectedSpread(), 1+p, 2)

	// rho({0}) = p * (1 - 1/2); rho({0,1}) = (1-p) * (1 - 1/2).
	statcheck.Numeric(t, "rho({0})", d.Rho([]graph.NodeID{0}), p/2, 2)
	statcheck.Numeric(t, "rho({0,1})", d.Rho([]graph.NodeID{0, 1}), (1-p)/2, 2)

	// With p < 1/2 the optimal typical cascade is {0}, cost p/2.
	set, cost, err := d.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, []graph.NodeID{0}) {
		t.Errorf("C* = %v, want [0]", set)
	}
	statcheck.Numeric(t, "rho(C*)", cost, p/2, 2)

	rel, err := d.ReachProbability(1)
	if err != nil {
		t.Fatal(err)
	}
	if rel != p {
		t.Errorf("rel(0,1) = %v, want %v", rel, p)
	}

	// And with p > 1/2 the optimum flips to {0,1}.
	d9 := mustDist(t, singleEdge(t, 0.9), 0)
	set9, cost9, err := d9.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set9, []graph.NodeID{0, 1}) {
		t.Errorf("C*(p=0.9) = %v, want [0 1]", set9)
	}
	statcheck.Numeric(t, "rho(C*) at p=0.9", cost9, 0.05, 4)
}

// TestOracleDiamondHandComputed checks the diamond fixture against
// inclusion-exclusion worked by hand.
func TestOracleDiamondHandComputed(t *testing.T) {
	g := diamond(t)
	d := mustDist(t, g, 0)
	statcheck.Numeric(t, "total probability", d.TotalProb(), 1, 16)

	probs := d.ReachProbabilities()
	statcheck.Numeric(t, "rel(0,0)", probs[0], 1, 16)
	statcheck.Numeric(t, "rel(0,1)", probs[1], 0.5, 16)
	statcheck.Numeric(t, "rel(0,2)", probs[2], 0.5, 16)
	statcheck.Numeric(t, "rel(0,3)", probs[3], 0.4375, 16)

	// sigma(0) = 1 + 0.5 + 0.5 + 0.4375.
	statcheck.Numeric(t, "expected spread", d.ExpectedSpread(), 2.4375, 16)

	// Reliability search at threshold 0.5 keeps 0,1,2; at 0.45 adds nothing;
	// at 0.4 adds node 3.
	if got := d.ReliabilitySearch(0.5); !reflect.DeepEqual(got, []graph.NodeID{0, 1, 2}) {
		t.Errorf("search(0.5) = %v, want [0 1 2]", got)
	}
	if got := d.ReliabilitySearch(0.4); !reflect.DeepEqual(got, []graph.NodeID{0, 1, 2, 3}) {
		t.Errorf("search(0.4) = %v, want [0 1 2 3]", got)
	}
}

// TestOracleFigure1Example1 pins the distribution to the paper's worked
// Example-1 probabilities — the same assertions the old in-test enumeration
// made, now against the real engine.
func TestOracleFigure1Example1(t *testing.T) {
	g := figure1(t)
	d := mustDist(t, g, 4) // v5

	statcheck.Numeric(t, "total probability", d.TotalProb(), 1, 1<<7)
	if got := d.Prob([]graph.NodeID{0, 4}); math.Abs(got-0.2646) > 1e-12 {
		t.Errorf("Pr[{v5,v1}] = %v, want 0.2646", got)
	}
	if got := d.Prob([]graph.NodeID{1, 3, 4}); math.Abs(got-0.036936) > 1e-12 {
		t.Errorf("Pr[{v5,v2,v4}] = %v, want 0.036936", got)
	}
	// {v5,v1,v3,v4} is impossible: v3 is only reachable through v2.
	if got := d.Prob([]graph.NodeID{0, 2, 3, 4}); got != 0 {
		t.Errorf("impossible cascade has probability %v", got)
	}

	// The source is always in the cascade.
	probs := d.ReachProbabilities()
	statcheck.Numeric(t, "rel(v5,v5)", probs[4], 1, 1<<7)
	// rel(v5,v1) by hand: the direct edge fires (0.7), or it doesn't (0.3)
	// and v2 is reached — 1-(1-0.4)(1-0.3*0.6) = 0.508 — and the v2->v1
	// edge fires (0.1): 0.7 + 0.3*0.508*0.1 = 0.71524. (The two indirect
	// routes share edge v2->v1, so naive path-independence would be wrong.)
	statcheck.Numeric(t, "rel(v5,v1)", probs[0], 0.71524, 1<<7)
}

// TestOracleChainCollapse: with every probability 1 there is exactly one
// world, and the distribution collapses to the deterministic reachable set.
func TestOracleChainCollapse(t *testing.T) {
	b := graph.NewBuilder(5)
	for i := 0; i < 4; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	d := mustDist(t, g, 0)
	sup := d.Support()
	if len(sup) != 1 || sup[0].Prob != 1 {
		t.Fatalf("deterministic graph has support %v, want a single mass-1 outcome", sup)
	}
	if got := SetOf(sup[0].Mask); !reflect.DeepEqual(got, []graph.NodeID{0, 1, 2, 3, 4}) {
		t.Fatalf("deterministic cascade = %v, want [0 1 2 3 4]", got)
	}
	if d.ExpectedSpread() != 5 {
		t.Fatalf("spread = %v, want 5", d.ExpectedSpread())
	}
	set, cost, err := d.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	if cost != 0 || len(set) != 5 {
		t.Fatalf("C* = %v cost %v, want the full chain at cost 0", set, cost)
	}
}

// TestOracleRelabelInvariance: rho and spread are invariant under node
// relabeling (a pure renaming of ids).
func TestOracleRelabelInvariance(t *testing.T) {
	g := figure1(t)
	perm := []graph.NodeID{3, 0, 4, 2, 1} // old id -> new id
	b := graph.NewBuilder(5)
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.From], perm[e.To], e.Prob)
	}
	pg := b.MustBuild()

	d := mustDist(t, g, 4)
	pd := mustDist(t, pg, perm[4])

	cands := [][]graph.NodeID{{4}, {0, 4}, {0, 1, 4}, {0, 1, 2, 3, 4}, {}}
	for _, c := range cands {
		pc := make([]graph.NodeID, len(c))
		for i, v := range c {
			pc[i] = perm[v]
		}
		statcheck.Numeric(t, "rho under relabeling", pd.Rho(pc), d.Rho(c), 1<<9)
	}
	statcheck.Numeric(t, "spread under relabeling", pd.ExpectedSpread(), d.ExpectedSpread(), 1<<9)
	_, cost, err := d.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	_, pcost, err := pd.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	statcheck.Numeric(t, "rho(C*) under relabeling", pcost, cost, 1<<9)
}

// TestOracleSpreadMonotoneUnderSeedAddition: sigma(S u {v}) >= sigma(S)
// exactly, for every S in a sample of subsets and every v.
func TestOracleSpreadMonotoneUnderSeedAddition(t *testing.T) {
	g := figure1(t)
	o, err := NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	for mask := uint64(1); mask < 1<<5; mask++ {
		s := SetOf(mask)
		base, err := o.Spread(s)
		if err != nil {
			t.Fatal(err)
		}
		for v := graph.NodeID(0); v < 5; v++ {
			if mask&(1<<uint(v)) != 0 {
				continue
			}
			ext, err := o.Spread(append(append([]graph.NodeID(nil), s...), v))
			if err != nil {
				t.Fatal(err)
			}
			if ext < base-1e-12 {
				t.Fatalf("sigma(%v + %d) = %v < sigma(%v) = %v", s, v, ext, s, base)
			}
		}
	}
}

// TestOracleSpreadCrossCheck: the SpreadOracle (no reachability pruning,
// per-node world masks) and CascadeDistribution (pruned per-query
// enumeration) are independent paths to sigma; they must agree to round-off.
func TestOracleSpreadCrossCheck(t *testing.T) {
	g := figure1(t)
	o, err := NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	seedSets := [][]graph.NodeID{{4}, {0}, {2}, {0, 3}, {1, 2, 4}}
	for _, seeds := range seedSets {
		d := mustDist(t, g, seeds...)
		got, err := o.Spread(seeds)
		if err != nil {
			t.Fatal(err)
		}
		statcheck.Numeric(t, "sigma cross-check", got, d.ExpectedSpread(), 1<<9)
	}
}

// TestOracleOptimalSeedSet: on the single-edge graph the best single seed
// is node 0 (spread 1+p beats 1), and k=n reaches everything.
func TestOracleOptimalSeedSet(t *testing.T) {
	g := singleEdge(t, 0.3)
	o, err := NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	set, spread, err := o.OptimalSeedSet(1)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, []graph.NodeID{0}) {
		t.Errorf("optimal 1-seed = %v, want [0]", set)
	}
	statcheck.Numeric(t, "optimal 1-seed spread", spread, 1.3, 2)

	set, spread, err = o.OptimalSeedSet(2)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(set, []graph.NodeID{0, 1}) || spread != 2 {
		t.Errorf("optimal 2-seed = %v spread %v, want [0 1] spread 2", set, spread)
	}
}

// TestOracleReachabilityPruning: uncertain edges in a component unreachable
// from the source do not count against the enumeration limit, and do not
// change the answer.
func TestOracleReachabilityPruning(t *testing.T) {
	b := graph.NewBuilder(2 + 2*MaxUncertainEdges)
	b.AddEdge(0, 1, 0.4)
	// A far component with 2*MaxUncertainEdges uncertain edges: enumeration
	// from node 0 must prune all of them or fail the edge limit.
	for i := 0; i < 2*MaxUncertainEdges; i += 2 {
		b.AddEdge(graph.NodeID(2+i), graph.NodeID(3+i), 0.5)
	}
	g := b.MustBuild()
	d := mustDist(t, g, 0)
	statcheck.Numeric(t, "pruned spread", d.ExpectedSpread(), 1.4, 4)
	if got := d.Prob([]graph.NodeID{0, 1}); got != 0.4 {
		t.Errorf("Pr[{0,1}] = %v, want 0.4", got)
	}
}

// TestOracleLimits: the guards reject graphs beyond enumerable size loudly
// rather than hanging.
func TestOracleLimits(t *testing.T) {
	b := graph.NewBuilder(0)
	for i := 0; i <= MaxUncertainEdges; i++ {
		b.AddEdge(0, graph.NodeID(i+1), 0.5)
	}
	if _, err := CascadeDistribution(b.MustBuild(), []graph.NodeID{0}); err == nil {
		t.Error("edge-limit violation not rejected")
	}
	if _, err := CascadeDistribution(figure1(t), nil); err == nil {
		t.Error("empty seed set not rejected")
	}
	if _, err := CascadeDistribution(figure1(t), []graph.NodeID{99}); err == nil {
		t.Error("out-of-range seed not rejected")
	}
	o, err := NewSpreadOracle(figure1(t))
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := o.OptimalSeedSet(0); err == nil {
		t.Error("k=0 not rejected")
	}
	if _, err := o.Spread([]graph.NodeID{-1}); err == nil {
		t.Error("negative node not rejected")
	}
}

// TestOracleMaskRoundTrip: MaskOf and SetOf are inverses on sorted sets.
func TestOracleMaskRoundTrip(t *testing.T) {
	sets := [][]graph.NodeID{{}, {0}, {63}, {0, 5, 17, 63}}
	for _, s := range sets {
		if got := SetOf(MaskOf(s)); !reflect.DeepEqual(got, s) && !(len(s) == 0 && len(got) == 0) {
			t.Errorf("round trip %v -> %v", s, got)
		}
	}
}

func mustLTDist(t testing.TB, g *graph.Graph, seeds ...graph.NodeID) *Distribution {
	t.Helper()
	d, err := LTCascadeDistribution(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	return d
}

// TestLTOracleDiamondHandComputed: under LT the diamond's sink keeps one of
// its two in-edges (weights 0.5 + 0.5 = 1), and each middle node keeps its
// edge from 0 with probability 0.5, so the sink is reached with
// probability 0.5·0.5 + 0.5·0.5 = 0.5 and σ({0}) = 1 + 3·0.5.
func TestLTOracleDiamondHandComputed(t *testing.T) {
	d := mustLTDist(t, diamond(t), 0)
	statcheck.Numeric(t, "total probability", d.TotalProb(), 1, 16)
	want := []float64{1, 0.5, 0.5, 0.5}
	for v, p := range d.ReachProbabilities() {
		statcheck.Numeric(t, "reach probability", p, want[v], 16)
	}
	statcheck.Numeric(t, "spread", d.ExpectedSpread(), 2.5, 16)
	// Both middle nodes live but the sink choosing one: {0,1,2,3} has
	// probability 0.25 · 1; the sink is never reached without a middle node.
	statcheck.Numeric(t, "P[{0,1,2,3}]", d.Prob([]graph.NodeID{0, 1, 2, 3}), 0.25, 16)
	statcheck.Numeric(t, "P[{0,3}]", d.Prob([]graph.NodeID{0, 3}), 0, 16)
}

// TestLTOracleEqualsICOnInTrees: when every node has at most one in-edge,
// keeping that edge with its weight is an independent coin per edge, so
// the LT and IC distributions coincide.
func TestLTOracleEqualsICOnInTrees(t *testing.T) {
	b := graph.NewBuilder(7)
	for v := 1; v < 7; v++ {
		b.AddEdge(graph.NodeID((v-1)/2), graph.NodeID(v), 0.2+0.1*float64(v))
	}
	g := b.MustBuild()
	for _, seeds := range [][]graph.NodeID{{0}, {1, 2}, {3}} {
		ic, lt := mustDist(t, g, seeds...), mustLTDist(t, g, seeds...)
		a, c := ic.Support(), lt.Support()
		if len(a) != len(c) {
			t.Fatalf("seeds %v: IC support %d, LT support %d", seeds, len(a), len(c))
		}
		for i := range a {
			if a[i].Mask != c[i].Mask {
				t.Fatalf("seeds %v: outcome %d: IC %b, LT %b", seeds, i, a[i].Mask, c[i].Mask)
			}
			statcheck.Numeric(t, "outcome probability", c[i].Prob, a[i].Prob, 64)
		}
	}
}

func TestLTOracleRejects(t *testing.T) {
	b := graph.NewBuilder(3)
	b.AddEdge(0, 2, 0.7)
	b.AddEdge(1, 2, 0.7)
	if _, err := LTCascadeDistribution(b.MustBuild(), []graph.NodeID{0}); err == nil {
		t.Fatal("overweight node accepted")
	}
	// 24 nodes on a path, each keeping its in-edge or not: 2^23 worlds.
	p := graph.NewBuilder(24)
	for v := 1; v < 24; v++ {
		p.AddEdge(graph.NodeID(v-1), graph.NodeID(v), 0.5)
	}
	if _, err := LTCascadeDistribution(p.MustBuild(), []graph.NodeID{0}); err == nil {
		t.Fatal("2^23 worlds accepted")
	}
	if _, err := LTCascadeDistribution(figure1(t), nil); err == nil {
		t.Fatal("empty seed set accepted")
	}
}
