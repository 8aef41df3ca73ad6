package core

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
)

// sparseGraph builds a random sparse graph large enough that ComputeAll over
// all nodes takes seconds when not canceled.
func sparseGraph(t testing.TB, seed uint64, n int) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < n; i++ {
		for j := 0; j < 4; j++ {
			v := graph.NodeID(r.Intn(n))
			if graph.NodeID(i) != v {
				b.AddEdge(graph.NodeID(i), v, 0.1+0.5*r.Float64())
			}
		}
	}
	return b.MustBuild()
}

func TestComputeAllCtxPreCanceled(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 20, 40)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ComputeAll(ctx, x, Options{}, checkpoint.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestComputeAllCtxCancellationPrompt cancels a long typical-cascade batch
// mid-flight and requires ComputeAll to stop promptly without leaking
// worker goroutines. CostSamples inflates per-node work so the batch would
// otherwise run for a long time.
func TestComputeAllCtxCancellationPrompt(t *testing.T) {
	g := sparseGraph(t, 41, 400)
	x := buildIndex(t, g, 40, 42)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ComputeAll(ctx, x, Options{CostSamples: 20000, CostSeed: 43}, checkpoint.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("ComputeAll returned %v after cancellation", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
