package index

import (
	"context"
	"errors"
	"runtime"
	"testing"
	"time"

	"soi/internal/checkpoint"
)

// awaitGoroutineBaseline asserts the goroutine count settles back to the
// pre-call baseline, giving pool workers a grace period to exit.
func awaitGoroutineBaseline(t *testing.T, before int) {
	t.Helper()
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before {
		if time.Now().After(deadline) {
			t.Fatalf("goroutines leaked: %d before, %d after", before, runtime.NumGoroutine())
		}
		time.Sleep(5 * time.Millisecond)
	}
}

func TestBuildCtxPreCanceled(t *testing.T) {
	g := randomGraph(t, 120, 30, 100)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := Build(ctx, g, Options{Samples: 8, Seed: 121}, checkpoint.Config{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
}

// TestBuildCtxCancellationPrompt starts a build that would run for a very
// long time, cancels it mid-flight, and requires Build to return promptly
// with context.Canceled and without leaking worker goroutines.
func TestBuildCtxCancellationPrompt(t *testing.T) {
	g := randomGraph(t, 122, 500, 5000)
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(20 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	_, err := Build(ctx, g, Options{Samples: 1 << 16, Seed: 123}, checkpoint.Config{})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("Build returned %v after cancellation", d)
	}
	awaitGoroutineBaseline(t, before)
}
