package reliability

import (
	"context"
	"testing"
	"time"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/statcheck"
	"soi/internal/worlds"
)

// paperGraph is the Figure-1 network; its exact reachability vector is
// enumerable (7 uncertain edges -> 128 worlds).
func paperGraph(t testing.TB) *graph.Graph {
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

// TestConformanceFromSource holds every per-node reachability estimate to
// the oracle simultaneously, so the bound carries a union over n nodes.
func TestConformanceFromSource(t *testing.T) {
	g := paperGraph(t)
	sources := []graph.NodeID{4}
	exact, err := oracle.ReachProbabilities(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	got, _, err := FromSource(context.Background(), g, sources, ell, 71, worlds.IC, checkpoint.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	b := bound.Hoeffding(ell, statcheck.DefaultDelta).Union(g.NumNodes())
	for v := range got {
		statcheck.Close(t, "FromSource vs oracle", got[v], exact[v], b)
	}
}

// TestConformanceST checks the two-point estimator against the exact
// rel(v5, v2) — a quantity with shared-edge path dependence that naive
// per-path arithmetic gets wrong, so only true world enumeration matches.
func TestConformanceST(t *testing.T) {
	g := paperGraph(t)
	exact, err := oracle.ReliabilityST(g, 4, 1)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	got, err := ST(context.Background(), g, 4, 1, ell, 72, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	statcheck.Close(t, "ST vs oracle", got, exact, bound.Hoeffding(ell, statcheck.DefaultDelta))
}

// TestConformanceSearch compares the sampled reliability search against the
// oracle's exact answer. Membership is only decidable for nodes whose exact
// probability clears the threshold by more than the sampling tolerance;
// nodes inside the margin are excluded from the assertion (and the test
// fails if that exclusion ever hides more than a margin-sized set).
func TestConformanceSearch(t *testing.T) {
	g := paperGraph(t)
	sources := []graph.NodeID{4}
	exact, err := oracle.ReachProbabilities(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	b := bound.Hoeffding(ell, statcheck.DefaultDelta).Union(g.NumNodes())
	for _, threshold := range []float64{0.05, 0.3, 0.5, 0.9} {
		got, _, err := Search(context.Background(), g, sources, threshold, ell, 73, worlds.IC, checkpoint.Budget{})
		if err != nil {
			t.Fatal(err)
		}
		inGot := make(map[graph.NodeID]bool, len(got))
		for _, v := range got {
			inGot[v] = true
		}
		excluded := 0
		for v := range exact {
			if statcheck.InMargin(exact[v], threshold, b) {
				excluded++
				continue
			}
			want := exact[v] >= threshold
			if inGot[graph.NodeID(v)] != want {
				t.Errorf("threshold %v: node %d membership %v, exact prob %v says %v (+/- eps %v)",
					threshold, v, inGot[graph.NodeID(v)], exact[v], want, b.Eps)
			}
		}
		if excluded > 1 {
			t.Errorf("threshold %v: %d nodes inside the +/-%v margin; fixture should separate better",
				threshold, excluded, b.Eps)
		}
	}
}

// TestConformanceFromSourceBudget: a budget whose deadline never binds must
// reproduce the plain run bit for bit (identical split sample streams),
// achieve every sample, and agree with the oracle.
func TestConformanceFromSourceBudget(t *testing.T) {
	g := paperGraph(t)
	sources := []graph.NodeID{4}
	exact, err := oracle.ReachProbabilities(g, sources)
	if err != nil {
		t.Fatal(err)
	}
	const ell = 20000
	plain, _, err := FromSource(context.Background(), g, sources, ell, 74, worlds.IC, checkpoint.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	got, achieved, err := FromSource(context.Background(), g, sources, ell, 74, worlds.IC, farBudget())
	if err != nil {
		t.Fatal(err)
	}
	if achieved != ell {
		t.Fatalf("achieved %d of %d samples with no deadline", achieved, ell)
	}
	b := bound.Hoeffding(ell, statcheck.DefaultDelta).Union(g.NumNodes())
	for v := range got {
		if got[v] != plain[v] {
			t.Fatalf("node %d: budgeted %v != plain %v (same seed, same stream)", v, got[v], plain[v])
		}
		statcheck.Close(t, "budgeted FromSource vs oracle", got[v], exact[v], b)
	}
}

// TestConformanceSearchBudget: same non-binding-budget identity for the
// search.
func TestConformanceSearchBudget(t *testing.T) {
	g := paperGraph(t)
	sources := []graph.NodeID{4}
	const ell = 20000
	const threshold = 0.3
	plain, _, err := Search(context.Background(), g, sources, threshold, ell, 75, worlds.IC, checkpoint.Budget{})
	if err != nil {
		t.Fatal(err)
	}
	got, achieved, err := Search(context.Background(), g, sources, threshold, ell, 75, worlds.IC, farBudget())
	if err != nil {
		t.Fatal(err)
	}
	if achieved != ell {
		t.Fatalf("achieved %d of %d samples with no deadline", achieved, ell)
	}
	if len(got) != len(plain) {
		t.Fatalf("budgeted search %v != plain %v", got, plain)
	}
	for i := range got {
		if got[i] != plain[i] {
			t.Fatalf("budgeted search %v != plain %v", got, plain)
		}
	}
}

// TestConformanceTheorem1Reduction exercises the paper's Theorem-1 reduction
// numerically with *exact* quantities on both sides: rel(s, t) recovered
// from the two exact typical-cascade costs of the augmented graph equals the
// oracle's exact rel(s, t).
func TestConformanceTheorem1Reduction(t *testing.T) {
	g := paperGraph(t)
	s, target := graph.NodeID(4), graph.NodeID(2)
	exact, err := oracle.ReliabilityST(g, s, target)
	if err != nil {
		t.Fatal(err)
	}
	aug, err := AugmentForReduction(g, target)
	if err != nil {
		t.Fatal(err)
	}
	dist, err := oracle.CascadeDistribution(aug, []graph.NodeID{s})
	if err != nil {
		t.Fatal(err)
	}
	n := aug.NumNodes()
	h1 := make([]graph.NodeID, n) // H1 = V
	for v := range h1 {
		h1[v] = graph.NodeID(v)
	}
	h2 := make([]graph.NodeID, 0, n-1) // H2 = V \ {t}
	for v := 0; v < n; v++ {
		if graph.NodeID(v) != target {
			h2 = append(h2, graph.NodeID(v))
		}
	}
	rel := RelFromCosts(n, dist.Rho(h1), dist.Rho(h2))
	statcheck.Numeric(t, "Theorem-1 reduction rel", rel, exact, 1<<12)
}

// farBudget is a deadline budget that never binds: the run is gated and
// counted, but completes every sample.
func farBudget() checkpoint.Budget { return checkpoint.Budget{Deadline: time.Now().Add(time.Hour)} }
