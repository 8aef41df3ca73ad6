package cascade

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

func TestExpectedSpreadCtxPreCanceled(t *testing.T) {
	g := paperGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := ExpectedSpread(ctx, g, []graph.NodeID{0}, 100, 1, worlds.IC, 0, checkpoint.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestExpectedSpreadCtxCancellationPrompt starts an estimate whose trial
// budget would take far longer than the test, cancels it mid-flight, and
// requires ExpectedSpread to return promptly with no leaked workers.
func TestExpectedSpreadCtxCancellationPrompt(t *testing.T) {
	g := lineGraph(t, 2000, 1) // each trial walks the whole 2000-node chain
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := ExpectedSpread(ctx, g, []graph.NodeID{0}, 1<<20, 2, worlds.IC, 0, checkpoint.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("ExpectedSpread returned %v after cancellation", d)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}
