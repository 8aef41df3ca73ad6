package core

import (
	"context"
	"sort"
	"testing"
	"time"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/statcheck"
	"soi/internal/worlds"
)

// TestConformanceEstimateStability holds the held-out stability estimator to
// the oracle: for a candidate set fixed a priori, EstimateCost is the mean
// of ell i.i.d. [0,1] Jaccard distances, so plain Hoeffding applies.
func TestConformanceEstimateStability(t *testing.T) {
	g := paperGraph(t)
	dist, err := oracle.CascadeDistribution(g, []graph.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	b := bound.Hoeffding(ell, statcheck.DefaultDelta)
	for _, cand := range [][]graph.NodeID{{4}, {0, 4}, {0, 1, 4}, {0, 1, 2, 3, 4}} {
		est := estimateCost(t, g, []graph.NodeID{4}, cand, ell, 77)
		statcheck.Close(t, "EstimateCost vs oracle rho", est, dist.Rho(cand), b)
	}
}

// TestConformanceEstimateStabilitySeedSet runs the same check for a
// multi-node source set (the paper's §5 seed-set stability extension).
func TestConformanceEstimateStabilitySeedSet(t *testing.T) {
	g := paperGraph(t)
	seeds := []graph.NodeID{0, 3}
	dist, err := oracle.CascadeDistribution(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	cand := []graph.NodeID{0, 1, 3}
	est := estimateCost(t, g, seeds, cand, ell, 78)
	statcheck.Close(t, "seed-set EstimateCost vs oracle rho", est, dist.Rho(cand), bound.Hoeffding(ell, statcheck.DefaultDelta))
}

// TestConformanceEstimateCostBudget: with a budget whose deadline never
// binds the estimator must reproduce the plain run bit for bit (same sample
// stream), achieve every requested sample, and still agree with the oracle.
func TestConformanceEstimateCostBudget(t *testing.T) {
	g := paperGraph(t)
	dist, err := oracle.CascadeDistribution(g, []graph.NodeID{4})
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	cand := []graph.NodeID{0, 4}
	plain := estimateCost(t, g, []graph.NodeID{4}, cand, ell, 79)
	got, achieved, err := EstimateCost(context.Background(), g,
		[]graph.NodeID{4}, cand, ell, 79, worlds.IC, checkpoint.Budget{Deadline: time.Now().Add(time.Hour)}, nil)
	if err != nil {
		t.Fatal(err)
	}
	if achieved != ell {
		t.Fatalf("achieved %d of %d samples with no deadline", achieved, ell)
	}
	if got != plain {
		t.Fatalf("budgeted estimate %v != plain estimate %v (same seed, same stream)", got, plain)
	}
	statcheck.Close(t, "budgeted EstimateCost vs oracle rho", got, dist.Rho(cand), bound.Hoeffding(ell, statcheck.DefaultDelta))
}

// TestConformanceComputeFromSet: the typical cascade of a seed set, computed
// by exhaustive median search on the sampled cascades, lands within the ERM
// bound of the set's exact optimal typical cascade.
func TestConformanceComputeFromSet(t *testing.T) {
	g := paperGraph(t)
	seeds := []graph.NodeID{4, 3}
	dist, err := oracle.CascadeDistribution(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	_, bestCost, err := dist.OptimalTypicalCascade()
	if err != nil {
		t.Fatal(err)
	}
	const ell = 4000
	x := buildIndex(t, g, ell, 52)
	res := ComputeFromSet(x, seeds, Options{Algorithm: MedianExact})
	statcheck.AtMost(t, "seed-set sampled median", dist.Rho(res.Set), bestCost,
		bound.ERM(ell, 1<<5, statcheck.DefaultDelta))
}

// TestConformanceRhoRelabelInvariance is the metamorphic companion at the
// estimator level: relabeling nodes must not change the estimated stability
// beyond two independent sampling errors.
func TestConformanceRhoRelabelInvariance(t *testing.T) {
	g := paperGraph(t)
	perm := []graph.NodeID{2, 4, 0, 1, 3} // old id -> new id
	b := graph.NewBuilder(5)
	for _, e := range g.Edges() {
		b.AddEdge(perm[e.From], perm[e.To], e.Prob)
	}
	pg := b.MustBuild()

	const ell = 20000
	cand := []graph.NodeID{0, 1, 4}
	pcand := make([]graph.NodeID, len(cand))
	for i, v := range cand {
		pcand[i] = perm[v]
	}
	sort.Slice(pcand, func(i, j int) bool { return pcand[i] < pcand[j] })
	est := estimateCost(t, g, []graph.NodeID{4}, cand, ell, 80)
	pest := estimateCost(t, pg, []graph.NodeID{perm[4]}, pcand, ell, 81)
	// Each estimate is within eps of the same exact value, so they are
	// within 2*eps of each other.
	statcheck.Close(t, "rho invariance under relabeling", est, pest,
		bound.Hoeffding(ell, statcheck.DefaultDelta).Scale(2))
}
