package soi

import (
	"context"
	"errors"
	"testing"
)

// TestCtxFacadeHonorsCancellation drives every context-accepting facade API
// with an already-canceled context: each must return context.Canceled
// immediately instead of doing any work.
func TestCtxFacadeHonorsCancellation(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "ba", N: 80, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	idx, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 20, Seed: 8}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	requireCanceled := func(api string, err error) {
		t.Helper()
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("%s: err = %v, want context.Canceled", api, err)
		}
	}

	_, err = BuildIndex(ctx, g, IndexOptions{Samples: 20, Seed: 9}, ResumeConfig{})
	requireCanceled("BuildIndex", err)
	_, err = AllTypicalCascades(ctx, idx, TypicalOptions{}, ResumeConfig{})
	requireCanceled("AllTypicalCascades", err)
	_, err = ExpectedSpread(ctx, g, []NodeID{0}, 100, 10, ResumeConfig{})
	requireCanceled("ExpectedSpread", err)
	_, _, err = EstimateStability(ctx, g, []NodeID{0}, []NodeID{0}, 100, 10, ModelIC, Budget{})
	requireCanceled("EstimateStability", err)
	_, err = SelectSeedsStd(ctx, idx, 2)
	requireCanceled("SelectSeedsStd", err)
	_, err = SelectSeedsStdMC(ctx, g, 2, MCOptions{Trials: 50, Seed: 11})
	requireCanceled("SelectSeedsStdMC", err)
	_, err = SelectSeedsTC(ctx, g, make(Spheres, g.NumNodes()), 2)
	requireCanceled("SelectSeedsTC", err)
	_, err = SelectSeedsRR(ctx, g, 2, RROptions{Sets: 100, Seed: 12}, ResumeConfig{})
	requireCanceled("SelectSeedsRR", err)
	_, _, err = SelectSeedsRRAuto(ctx, g, 2, RRAutoOptions{Epsilon: 0.3, Seed: 13})
	requireCanceled("SelectSeedsRRAuto", err)
	_, err = Reliability(ctx, g, 0, 0, 100, 14)
	requireCanceled("Reliability", err)
	_, err = ReliabilitySearch(ctx, g, []NodeID{0}, 0.5, 100, 14)
	requireCanceled("ReliabilitySearch", err)
}
