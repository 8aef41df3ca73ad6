// Package pool is the shared worker pool behind every parallel compute path
// in the library (index building, typical-cascade batches, Monte-Carlo
// spread estimation). It adds three behaviours the hand-rolled
// sync.WaitGroup loops it replaced did not have:
//
//  1. cooperative cancellation — workers observe ctx between tasks and the
//     pool returns ctx.Err() promptly instead of running to completion;
//  2. panic isolation — a panic in a worker is recovered and converted into
//     a *PanicError carrying the stack, instead of crashing the process; and
//  3. progress — an optional serialized callback reporting (done, total).
//
// The pool hands out task indices 0..total-1 from a shared atomic cursor, so
// work distribution is dynamic (no worker is stuck behind a straggler's
// pre-assigned stripe). Callers that need per-worker scratch state index it
// by the worker id passed to fn.
package pool

import (
	"context"
	"fmt"
	"runtime"
	"runtime/debug"
	"sync"
	"sync/atomic"

	"soi/internal/fault"
	"soi/internal/telemetry"
)

// PanicError is a worker panic converted into an error. The pool guarantees
// the process does not crash; callers decide whether to surface, log, or
// re-panic.
type PanicError struct {
	// Value is the value the worker panicked with.
	Value any
	// Task is the task index that panicked.
	Task int
	// Stack is the worker goroutine's stack at recovery time.
	Stack []byte
}

func (e *PanicError) Error() string {
	return fmt.Sprintf("pool: worker panic on task %d: %v\n%s", e.Task, e.Value, e.Stack)
}

// Options configures a Run.
type Options struct {
	// Workers bounds parallelism. Zero and negative values both select
	// GOMAXPROCS, which is what the library's builds and sweeps use.
	Workers int
}

// Workers normalizes a requested worker count against a task count: values
// <= 0 (including negatives) select GOMAXPROCS, and the result never
// exceeds tasks (when tasks > 0) nor drops below 1.
func Workers(requested, tasks int) int {
	w := requested
	if w <= 0 {
		w = runtime.GOMAXPROCS(0)
	}
	if tasks > 0 && w > tasks {
		w = tasks
	}
	if w < 1 {
		w = 1
	}
	return w
}

// Run executes fn(worker, task) for every task in 0..total-1 across a pool
// of workers. It returns nil when all tasks complete, ctx.Err() when the
// context is canceled first, or the first task error (including recovered
// panics as *PanicError). After the first error or cancellation no new
// tasks are started; in-flight tasks finish before Run returns, so fn is
// never running when Run has returned and no goroutines are leaked. The
// registry ctx carries (telemetry.FromContext) receives pool utilization
// metrics: pool.tasks_queued/done/active, pool.workers and pool.panics.
func Run(ctx context.Context, total int, opts Options, fn func(worker, task int) error) error {
	if total <= 0 {
		return ctx.Err()
	}
	workers := Workers(opts.Workers, total)

	// Handles resolve to nil on a nil registry; every update below is then a
	// single nil check, so disabled telemetry is free on the task loop.
	tel := telemetry.FromContext(ctx)
	var (
		mQueued  = tel.Counter("pool.tasks_queued")
		mDone    = tel.Counter("pool.tasks_done")
		mActive  = tel.Gauge("pool.tasks_active")
		mWorkers = tel.Gauge("pool.workers")
		mPanics  = tel.Counter("pool.panics")
	)
	mQueued.Add(int64(total))
	mWorkers.Set(int64(workers))

	var (
		cursor atomic.Int64 // next task to hand out
		stop   atomic.Bool
		errMu  sync.Mutex
		first  error
		wg     sync.WaitGroup
	)
	cursor.Store(-1)
	record := func(err error) {
		stop.Store(true)
		errMu.Lock()
		if first == nil {
			first = err
		}
		errMu.Unlock()
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				if stop.Load() {
					return
				}
				if err := ctx.Err(); err != nil {
					record(err)
					return
				}
				task := int(cursor.Add(1))
				if task >= total {
					return
				}
				// Failpoint: lets tests inject errors, delays, panics, or
				// simulated kills between task handout and execution. A
				// single atomic load when nothing is armed.
				if err := fault.Hit(fault.PoolTask); err != nil {
					record(err)
					return
				}
				mActive.Add(1)
				err := runTask(fn, w, task)
				mActive.Add(-1)
				if err != nil {
					if _, ok := err.(*PanicError); ok {
						mPanics.Inc()
					}
					record(err)
					return
				}
				mDone.Inc()
			}
		}(w)
	}
	wg.Wait()
	return first
}

// runTask invokes fn with panic recovery.
func runTask(fn func(worker, task int) error, worker, task int) (err error) {
	defer func() {
		if p := recover(); p != nil {
			err = &PanicError{Value: p, Task: task, Stack: debug.Stack()}
		}
	}()
	return fn(worker, task)
}
