package infmax

import (
	"context"
	"testing"

	"soi/internal/graph"
	"soi/internal/worlds"
)

func TestRRAutoValidation(t *testing.T) {
	g := starChain(t)
	if _, _, err := RRAuto(context.Background(), g, 0, RRAutoOptions{Epsilon: 0.3}, worlds.IC); err == nil {
		t.Error("accepted k=0")
	}
	if _, _, err := RRAuto(context.Background(), g, 1, RRAutoOptions{Epsilon: 0}, worlds.IC); err == nil {
		t.Error("accepted eps=0")
	}
	if _, _, err := RRAuto(context.Background(), g, 1, RRAutoOptions{Epsilon: 1}, worlds.IC); err == nil {
		t.Error("accepted eps=1")
	}
}

func TestRRAutoEdgelessGraph(t *testing.T) {
	g := graph.NewBuilder(5).MustBuild()
	sel, theta, err := RRAuto(context.Background(), g, 2, RRAutoOptions{Epsilon: 0.3, Seed: 1}, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	if len(sel.Seeds) != 2 || theta != 5 {
		t.Fatalf("sel=%v theta=%d", sel.Seeds, theta)
	}
}

func TestRRAutoQuality(t *testing.T) {
	g := randomGraph(t, 131, 120, 480, 0.15)
	sel, theta, err := RRAuto(context.Background(), g, 5, RRAutoOptions{Epsilon: 0.3, Seed: 2, MaxSets: 100000}, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	if theta < g.NumNodes() {
		t.Fatalf("theta %d below node count", theta)
	}
	x := buildIndex(t, g, 200, 3)
	greedy, err := Std(context.Background(), x, 5)
	if err != nil {
		t.Fatal(err)
	}
	sAuto := mcSpread(t, g, sel.Seeds, 20000, 4)
	sGreedy := mcSpread(t, g, greedy.Seeds, 20000, 4)
	if sAuto < 0.85*sGreedy {
		t.Fatalf("RRAuto spread %v far below greedy %v (theta=%d)", sAuto, sGreedy, theta)
	}
}

func TestRRAutoCapsTheta(t *testing.T) {
	g := randomGraph(t, 133, 80, 320, 0.05)
	_, theta, err := RRAuto(context.Background(), g, 3, RRAutoOptions{Epsilon: 0.1, Seed: 5, MaxSets: 500}, worlds.IC)
	if err != nil {
		t.Fatal(err)
	}
	if theta > 500 {
		t.Fatalf("theta %d exceeds cap", theta)
	}
}

func TestLogChoose(t *testing.T) {
	// ln C(5,2) = ln 10.
	if got, want := logChoose(5, 2), 2.302585092994046; got < want-1e-9 || got > want+1e-9 {
		t.Fatalf("logChoose(5,2) = %v, want ln 10", got)
	}
	if logChoose(5, 0) != 0 || logChoose(5, 5) != 0 {
		t.Fatal("degenerate cases wrong")
	}
	if logChoose(5, 9) != 0 {
		t.Fatal("k>n should return 0")
	}
}
