package infmax

import (
	"slices"
	"testing"

	"soi/internal/datasets"
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

// TestDegreeDiscountPinnedSeeds pins the k = 30 seed sequences on six
// configurations at scale 0.25 (learnt and assigned probabilities, every
// network but one), so a change to the selection loop that reorders picks
// or near-ties shows up as a diff here.
func TestDegreeDiscountPinnedSeeds(t *testing.T) {
	pinned := map[string][]graph.NodeID{
		"digg-S":     {202, 733, 90, 609, 548, 774, 802, 365, 669, 493, 225, 139, 772, 614, 453, 824, 144, 218, 400, 544, 639, 356, 545, 638, 799, 311, 196, 541, 368, 391},
		"flixster-G": {295, 810, 961, 672, 1449, 159, 1252, 424, 681, 1152, 1376, 859, 987, 1383, 1455, 1430, 482, 7, 1208, 1312, 1464, 1689, 708, 799, 711, 1272, 111, 19, 23, 43},
		"twitter-S":  {276, 217, 227, 290, 152, 165, 67, 39, 278, 23, 5, 114, 283, 255, 68, 14, 238, 207, 0, 29, 220, 81, 22, 191, 280, 2, 31, 295, 172, 291},
		"nethept-F":  {104, 34, 178, 88, 36, 184, 13, 120, 15, 18, 25, 141, 74, 56, 55, 77, 73, 27, 22, 152, 65, 103, 23, 117, 37, 67, 81, 98, 106, 109},
		"epinions-W": {904, 748, 684, 159, 674, 761, 191, 768, 802, 171, 812, 923, 938, 693, 754, 836, 813, 789, 495, 727, 850, 906, 706, 899, 919, 477, 549, 467, 832, 892},
		"slashdot-F": {718, 801, 482, 780, 879, 210, 734, 908, 850, 649, 685, 623, 448, 842, 568, 957, 806, 867, 917, 937, 635, 522, 656, 748, 772, 925, 845, 853, 893, 930},
	}
	for name, want := range pinned {
		d, err := datasets.Load(name, datasets.Config{Scale: 0.25})
		if err != nil {
			t.Fatal(err)
		}
		sel, err := DegreeDiscount(d.Graph, len(want), d.Graph.MeanProb())
		if err != nil {
			t.Fatal(err)
		}
		if !slices.Equal(sel.Seeds, want) {
			t.Errorf("%s: seeds %v, want %v", name, sel.Seeds, want)
		}
	}
}
