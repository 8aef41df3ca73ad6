package pool

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

func TestRunCompletesAllTasks(t *testing.T) {
	const total = 1000
	var hit [total]atomic.Int32
	err := Run(context.Background(), total, Options{Workers: 7}, func(_, task int) error {
		hit[task].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	for i := range hit {
		if got := hit[i].Load(); got != 1 {
			t.Fatalf("task %d executed %d times", i, got)
		}
	}
}

func TestRunWorkerIDsAreDistinct(t *testing.T) {
	const workers = 4
	var perWorker [workers]atomic.Int64
	err := Run(context.Background(), 200, Options{Workers: workers}, func(w, _ int) error {
		if w < 0 || w >= workers {
			return fmt.Errorf("worker id %d out of range", w)
		}
		perWorker[w].Add(1)
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	var sum int64
	for i := range perWorker {
		sum += perWorker[i].Load()
	}
	if sum != 200 {
		t.Fatalf("task executions = %d, want 200", sum)
	}
}

func TestRunRecoversPanicWithStack(t *testing.T) {
	err := Run(context.Background(), 50, Options{Workers: 3}, func(_, task int) error {
		if task == 17 {
			panic("kaboom")
		}
		return nil
	})
	var pe *PanicError
	if !errors.As(err, &pe) {
		t.Fatalf("want *PanicError, got %v", err)
	}
	if pe.Task != 17 || pe.Value != "kaboom" {
		t.Fatalf("unexpected panic payload: task=%d value=%v", pe.Task, pe.Value)
	}
	if !strings.Contains(pe.Error(), "kaboom") || !strings.Contains(pe.Error(), "pool_test.go") {
		t.Fatalf("error lacks message or stack:\n%s", pe.Error())
	}
}

func TestRunPropagatesFirstErrorAndStops(t *testing.T) {
	boom := errors.New("boom")
	var started atomic.Int64
	err := Run(context.Background(), 10_000, Options{Workers: 2}, func(_, task int) error {
		started.Add(1)
		if task == 3 {
			return boom
		}
		return nil
	})
	if !errors.Is(err, boom) {
		t.Fatalf("want boom, got %v", err)
	}
	// After the error the pool must drain quickly, not run all 10k tasks.
	if n := started.Load(); n > 1000 {
		t.Fatalf("pool kept scheduling after error: %d tasks started", n)
	}
}

func TestRunObservesCancellation(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	var executed atomic.Int64
	go func() {
		time.Sleep(10 * time.Millisecond)
		cancel()
	}()
	start := time.Now()
	err := Run(ctx, 1<<30, Options{Workers: 4}, func(_, _ int) error {
		executed.Add(1)
		time.Sleep(100 * time.Microsecond)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("cancellation took %v", elapsed)
	}
}

func TestRunCanceledBeforeStart(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var executed atomic.Int64
	err := Run(ctx, 100, Options{}, func(_, _ int) error {
		executed.Add(1)
		return nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
}

func TestRunZeroTasks(t *testing.T) {
	if err := Run(context.Background(), 0, Options{}, nil); err != nil {
		t.Fatal(err)
	}
}

func TestRunLeaksNoGoroutines(t *testing.T) {
	before := runtime.NumGoroutine()
	for i := 0; i < 10; i++ {
		_ = Run(context.Background(), 100, Options{Workers: 8}, func(_, task int) error {
			if task == 50 {
				return errors.New("stop")
			}
			return nil
		})
	}
	deadline := time.Now().Add(2 * time.Second)
	for time.Now().Before(deadline) {
		if runtime.NumGoroutine() <= before {
			return
		}
		time.Sleep(10 * time.Millisecond)
	}
	t.Fatalf("goroutines: before=%d after=%d", before, runtime.NumGoroutine())
}

func TestWorkersNormalization(t *testing.T) {
	maxprocs := runtime.GOMAXPROCS(0)
	cases := []struct {
		requested, tasks, want int
	}{
		{0, 1000, min(maxprocs, 1000)},
		{-1, 1000, min(maxprocs, 1000)},  // negative behaves like 0
		{-99, 1000, min(maxprocs, 1000)}, // any negative
		{3, 1000, 3},
		{8, 2, 2}, // clamped to task count
		{5, 0, 5}, // unknown task count: no clamp
		{-2, 0, maxprocs},
	}
	for _, c := range cases {
		if got := Workers(c.requested, c.tasks); got != c.want {
			t.Errorf("Workers(%d, %d) = %d, want %d", c.requested, c.tasks, got, c.want)
		}
	}
}
