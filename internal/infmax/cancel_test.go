package infmax

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/worlds"
)

func preCanceled() context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	return ctx
}

func TestStdMCCtxPreCanceled(t *testing.T) {
	g := starChain(t)
	if _, err := StdMC(preCanceled(), g, 2, MCOptions{Trials: 50, Seed: 1}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRRCtxPreCanceled(t *testing.T) {
	g := starChain(t)
	if _, err := RR(preCanceled(), g, 2, RROptions{Sets: 500, Seed: 2}, worlds.IC, checkpoint.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

func TestRRAutoCtxPreCanceled(t *testing.T) {
	g := starChain(t)
	if _, _, err := RRAuto(preCanceled(), g, 2, RRAutoOptions{Epsilon: 0.3, Seed: 3}, worlds.IC); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestStdMCCtxCancellationPrompt cancels a Monte-Carlo greedy whose trial
// budget would run for minutes and requires StdMC to return promptly:
// cancellation must be observed inside a single marginal-gain evaluation
// (between simulation trials), not just between CELF rounds.
func TestStdMCCtxCancellationPrompt(t *testing.T) {
	b := graph.NewBuilder(3000)
	for i := 0; i < 2999; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := StdMC(ctx, g, 2, MCOptions{Trials: 1 << 17, Seed: 4})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("StdMC returned %v after cancellation", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestSaturationStdMCCtxPreCanceled(t *testing.T) {
	g := starChain(t)
	if _, _, err := SaturationStdMC(preCanceled(), g, 2, 2, MCOptions{Trials: 50, Seed: 5}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestSaturationStdMCCtxCancellationPrompt is TestStdMCCtxCancellationPrompt
// for the naive Monte-Carlo greedy behind the Figure 7 saturation trace:
// it evaluates every candidate every round, so it must observe cancellation
// inside an evaluation too, not only between rounds.
func TestSaturationStdMCCtxCancellationPrompt(t *testing.T) {
	b := graph.NewBuilder(3000)
	for i := 0; i < 2999; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	g := b.MustBuild()
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, _, err := SaturationStdMC(ctx, g, 2, 2, MCOptions{Trials: 1 << 17, Seed: 6})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 3*time.Second {
		t.Fatalf("SaturationStdMC returned %v after cancellation", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
