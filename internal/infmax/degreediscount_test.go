package infmax

import (
	"testing"

	"soi/internal/graph"
)

func TestDegreeDiscountValidation(t *testing.T) {
	g := starChain(t)
	if _, err := DegreeDiscount(g, 0, 0.1); err == nil {
		t.Error("accepted k=0")
	}
	if _, err := DegreeDiscount(g, 1, 0); err == nil {
		t.Error("accepted p=0")
	}
	if _, err := DegreeDiscount(g, 1, 1.5); err == nil {
		t.Error("accepted p>1")
	}
}

func TestDegreeDiscountFirstSeedIsMaxDegree(t *testing.T) {
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(0, 2, 0.1)
	b.AddEdge(0, 3, 0.1)
	b.AddEdge(4, 5, 0.1)
	g := b.MustBuild()
	sel, err := DegreeDiscount(g, 1, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Seeds[0] != 0 {
		t.Fatalf("first seed %d, want 0", sel.Seeds[0])
	}
}

func TestDegreeDiscountAvoidsClusteredSeeds(t *testing.T) {
	// Triangle of high-degree nodes vs an independent hub: after picking
	// one triangle node, its neighbors are discounted, so the second pick
	// must be the independent hub even though its raw degree ties.
	b := graph.NewBuilder(10)
	// Triangle 0-1-2 (mutual), each also pointing at one leaf.
	b.AddMutualEdge(0, 1, 0.1)
	b.AddMutualEdge(1, 2, 0.1)
	b.AddMutualEdge(0, 2, 0.1)
	b.AddEdge(0, 3, 0.1)
	b.AddEdge(1, 4, 0.1)
	b.AddEdge(2, 5, 0.1)
	// Independent hub 6 with three leaves.
	b.AddEdge(6, 7, 0.1)
	b.AddEdge(6, 8, 0.1)
	b.AddEdge(6, 9, 0.1)
	g := b.MustBuild()
	sel, err := DegreeDiscount(g, 2, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	if sel.Seeds[1] != 6 {
		t.Fatalf("second seed %d, want the independent hub 6 (seeds %v)", sel.Seeds[1], sel.Seeds)
	}
}

func TestDegreeDiscountQualityReasonable(t *testing.T) {
	g := randomGraph(t, 121, 200, 800, 0.1)
	dd, err := DegreeDiscount(g, 10, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	rnd, err := Random(g, 10, 122)
	if err != nil {
		t.Fatal(err)
	}
	sDD := mcSpread(t, g, dd.Seeds, 20000, 123)
	sRnd := mcSpread(t, g, rnd.Seeds, 20000, 123)
	if sDD <= sRnd {
		t.Fatalf("DegreeDiscount %v did not beat random %v", sDD, sRnd)
	}
}

func TestDegreeDiscountDistinctSeeds(t *testing.T) {
	g := randomGraph(t, 124, 50, 200, 0.1)
	sel, err := DegreeDiscount(g, 20, 0.1)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[graph.NodeID]bool{}
	for _, s := range sel.Seeds {
		if seen[s] {
			t.Fatalf("duplicate seed %d", s)
		}
		seen[s] = true
	}
}
