package checkpoint

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"soi/internal/bound"
	"soi/internal/fault"
	"soi/internal/telemetry"
)

// Budget bounds a run by wall-clock deadline while demanding a minimum
// amount of completed work. The paper's Theorem 2 makes partial sampling
// statistically meaningful — the Jaccard-median estimate from ℓ sampled
// worlds degrades gracefully as ℓ shrinks — so a deadline-bounded run stops
// handing out new units as the deadline nears and returns the partial result
// (annotated with a *PartialError) instead of failing.
type Budget struct {
	// Deadline is the wall-clock bound; zero means unbounded.
	Deadline time.Time
	// MinWorlds is the minimum number of completed units (worlds, trials,
	// RR sets, nodes) an acceptable partial result needs. A deadline that
	// arrives before MinWorlds units complete is a hard error, not a partial
	// result. Values < 1 are treated as 1 — a partial result is never empty.
	MinWorlds int
}

func (b Budget) bounded() bool { return !b.Deadline.IsZero() }

func (b Budget) minUnits() int {
	if b.MinWorlds < 1 {
		return 1
	}
	return b.MinWorlds
}

// ErrPartial is the sentinel matched by errors.Is for deadline-degraded
// results. The concrete error is always a *PartialError carrying the
// achieved unit count and the Theorem-2-style error bound.
var ErrPartial = errors.New("partial result (deadline reached)")

// ErrDeadline is returned by Runner.Gate when the budget's deadline is too
// near to start another unit. Compute paths treat it as "stop sampling" and
// then convert the outcome into a *PartialError or a hard error depending on
// how much work completed.
var ErrDeadline = errors.New("checkpoint: deadline reached")

// PartialError annotates a deadline-degraded result. It wraps ErrPartial, so
// callers distinguish degradation from hard failure with
// errors.Is(err, checkpoint.ErrPartial) and still receive a usable result
// alongside it.
type PartialError struct {
	// Achieved is the number of units (worlds ℓ, trials, RR sets, nodes)
	// that completed before the deadline.
	Achieved int
	// Requested is the number of units the caller asked for.
	Requested int
	// Bound is the Theorem-2-style additive error bound at the achieved
	// sample count: bound.Hoeffding(Achieved, bound.ServingDelta) for a
	// [0,1]-valued mean, which callers scale to the estimate's range.
	Bound float64
}

func (e *PartialError) Error() string {
	return fmt.Sprintf("partial result: deadline reached after %d/%d units (±%.4f error bound)",
		e.Achieved, e.Requested, e.Bound)
}

// Unwrap makes errors.Is(err, ErrPartial) true.
func (e *PartialError) Unwrap() error { return ErrPartial }

// Config configures a checkpointed, deadline-bounded run. Every sampling
// algorithm takes one as its last parameter. The zero value disables both
// checkpointing and the deadline: the call is the plain run, and it costs
// nothing extra — no run key is computed, no completed unit is tracked, and
// no flusher goroutine starts.
type Config struct {
	// Path is the checkpoint file; "" disables checkpointing (the Budget
	// still applies).
	Path string
	// FlushInterval is the time trigger for background flushes; 0 selects
	// 30 seconds.
	FlushInterval time.Duration
	// FlushEvery is the unit-count trigger: a flush is also requested after
	// this many units complete since the last flush. 0 selects
	// max(1, units/20); negative disables the count trigger.
	FlushEvery int
	// Budget bounds the run by deadline (see Budget).
	Budget Budget
	// OnResume, if non-nil, is called once after a checkpoint is loaded,
	// with the number of already-completed units and the total.
	OnResume func(done, total int)
}

func (c Config) flushInterval() time.Duration {
	if c.FlushInterval <= 0 {
		return 30 * time.Second
	}
	return c.FlushInterval
}

func (c Config) flushEvery(units int) int {
	switch {
	case c.FlushEvery < 0:
		return math.MaxInt
	case c.FlushEvery == 0:
		if e := units / 20; e > 1 {
			return e
		}
		return 1
	default:
		return c.FlushEvery
	}
}

// Runner coordinates one checkpointed run: it owns the completed-unit
// bitmap, a background flusher goroutine (flushes happen off the worker hot
// path, triggered by time or completed-unit count), and the budget gate.
// A Runner for the zero Config is inert: Gate and MarkDone return at once.
//
// The locking contract that makes flushes consistent without stalling
// workers: a worker publishes a unit's results to caller-owned storage
// first, then calls MarkDone, which takes the runner lock. The flusher
// clones the bitmap under the same lock and encodes the payload *outside*
// it — safe because units marked done are immutable from then on.
type Runner struct {
	cfg    Config
	tel    *telemetry.Registry // flush metrics; nil disables
	key    uint64
	units  int
	encode func(done *Bitmap) ([]byte, error)

	mu        sync.Mutex
	done      *Bitmap // nil for the zero Config: nothing to track
	sinceLast int     // units completed since the last flush

	start    time.Time
	kick     chan struct{}
	quit     chan struct{}
	stopOnce sync.Once
	flusher  sync.WaitGroup

	errMu    sync.Mutex
	flushErr error // first flush failure; fatal when it is a simulated kill
}

// Start loads any prior checkpoint and begins the background flusher.
// key returns the run key (see Hasher); it is called once, and only when
// cfg.Path is set, because hashing a graph costs milliseconds a plain run
// must not pay. encode serializes the partial accumulators of the units
// marked in the given bitmap; it is called from the flusher goroutine with a
// private snapshot. The returned State is nil when no checkpoint existed;
// ErrStale / ErrCorrupt / IO failures abort the run before any compute
// happens. The registry ctx carries (telemetry.FromContext) receives the
// flush metrics: checkpoint.flushes, flush_errors, flushed_bytes and
// flush_ns.
func Start(ctx context.Context, cfg Config, key func() uint64, units int, encode func(done *Bitmap) ([]byte, error)) (*Runner, *State, error) {
	r := &Runner{cfg: cfg, tel: telemetry.FromContext(ctx), units: units, encode: encode}
	if cfg.Path == "" && !cfg.Budget.bounded() {
		return r, nil, nil
	}
	r.done = NewBitmap(units)
	r.start = time.Now()
	if cfg.Path == "" {
		return r, nil, nil
	}
	r.key = key()
	st, err := Load(cfg.Path, r.key, units)
	if err != nil {
		return nil, nil, err
	}
	if st != nil {
		r.done = st.Done.Clone()
		if cfg.OnResume != nil {
			cfg.OnResume(st.Done.Count(), units)
		}
	}
	r.kick = make(chan struct{}, 1)
	r.quit = make(chan struct{})
	r.flusher.Add(1)
	go r.flushLoop()
	return r, st, nil
}

// Snapshot returns a copy of the current completed-unit bitmap (including
// units restored from a resumed checkpoint); nil for the zero Config.
func (r *Runner) Snapshot() *Bitmap {
	if r.done == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done.Clone()
}

// MarkDone records unit i as complete. It never blocks on IO.
func (r *Runner) MarkDone(i int) {
	if r.done == nil {
		return
	}
	r.mu.Lock()
	if !r.done.Get(i) {
		r.done.Set(i)
		r.sinceLast++
	}
	trigger := r.cfg.Path != "" && r.sinceLast >= r.cfg.flushEvery(r.units)
	r.mu.Unlock()
	if trigger {
		select {
		case r.kick <- struct{}{}:
		default: // a flush is already pending
		}
	}
}

// DoneCount returns how many units are complete; it is 0 for the zero
// Config, which tracks nothing.
func (r *Runner) DoneCount() int {
	if r.done == nil {
		return 0
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.done.Count()
}

// Gate is called by workers before starting a unit. It returns ErrDeadline
// when the budget's deadline has passed or is nearer than the observed
// per-unit throughput (finishing another unit would overrun), and the first
// fatal flush error (a simulated kill) so an injected crash stops the run
// the way a real one would.
func (r *Runner) Gate() error {
	if r.cfg.Path != "" {
		r.errMu.Lock()
		ferr := r.flushErr
		r.errMu.Unlock()
		if ferr != nil && fault.IsKilled(ferr) {
			return ferr
		}
	}
	if !r.cfg.Budget.bounded() {
		return nil
	}
	done := r.DoneCount()
	if done == 0 {
		// Always attempt at least one unit, even past the deadline: a
		// partial result is never empty, and the first completed unit gives
		// the throughput estimate the checks below need.
		return nil
	}
	remaining := time.Until(r.cfg.Budget.Deadline)
	if remaining <= 0 {
		return ErrDeadline
	}
	// Throughput estimate: elapsed wall time per completed unit. Stop when
	// the remaining budget cannot fit one more unit with 2x safety margin.
	perUnit := time.Since(r.start) / time.Duration(done)
	if remaining < 2*perUnit {
		return ErrDeadline
	}
	return nil
}

// Partial converts an achieved-unit count into the run outcome: a
// *PartialError when the budget's minimum is met, or a hard error when even
// that much work did not complete.
func (r *Runner) Partial(requested int) error {
	achieved := r.DoneCount()
	if achieved < r.cfg.Budget.minUnits() {
		return fmt.Errorf("deadline reached after %d/%d units, below the budget minimum of %d: %w",
			achieved, requested, r.cfg.Budget.minUnits(), ErrDeadline)
	}
	return &PartialError{Achieved: achieved, Requested: requested,
		Bound: bound.Hoeffding(achieved, bound.ServingDelta).Eps}
}

// Settle ends a run whose work loop returned runErr, and settles the
// checkpoint file to match. It returns nil when every unit completed; a
// *PartialError when the deadline stopped the run with the budget minimum
// met (the caller returns its partial result together with it); and any
// other error when the run failed, in which case the caller returns no
// result. Callers tell the last two apart with errors.Is(err, ErrPartial).
func (r *Runner) Settle(runErr error) error {
	switch {
	case runErr == nil:
		return r.Finish(true)
	case errors.Is(runErr, ErrDeadline):
		if err := r.Finish(false); err != nil && fault.IsKilled(err) {
			return err
		}
		return r.Partial(r.units)
	case fault.IsKilled(runErr):
		// A really killed process writes nothing more: no final flush.
		r.Abort()
		return runErr
	default:
		// Cancellation or a worker failure: flush so a later run resumes.
		r.Finish(false)
		return runErr
	}
}

// flushLoop is the background flusher: it writes the checkpoint when the
// time trigger fires, when MarkDone reports enough new units, and finally
// when the runner shuts down.
func (r *Runner) flushLoop() {
	defer r.flusher.Done()
	ticker := time.NewTicker(r.cfg.flushInterval())
	defer ticker.Stop()
	for {
		select {
		case <-r.quit:
			// Drain one pending count-triggered flush before shutting down:
			// a kick requested just before stop() must not be silently
			// dropped, or the last FlushEvery units would never reach disk
			// (and fault-injection at the flush site would be racy).
			select {
			case <-r.kick:
				r.flushOnce()
			default:
			}
			return
		case <-ticker.C:
		case <-r.kick:
		}
		r.flushOnce()
	}
}

// flushOnce snapshots and writes the checkpoint; the first error is recorded
// and, for simulated kills, stops further flushing (the "process" is dead).
func (r *Runner) flushOnce() {
	r.mu.Lock()
	if r.sinceLast == 0 {
		r.mu.Unlock()
		return
	}
	snap := r.done.Clone()
	r.mu.Unlock()

	start := time.Now()
	payload, err := r.encode(snap)
	if err == nil {
		err = Save(r.cfg.Path, r.key, snap, payload)
	}
	if err == nil {
		r.tel.Counter("checkpoint.flushes").Inc()
		r.tel.Counter("checkpoint.flushed_bytes").Add(int64(len(payload)))
	} else {
		r.tel.Counter("checkpoint.flush_errors").Inc()
	}
	r.tel.Histogram("checkpoint.flush_ns").Observe(time.Since(start).Nanoseconds())

	r.errMu.Lock()
	if err != nil && r.flushErr == nil {
		r.flushErr = err
	}
	r.errMu.Unlock()
	if err == nil {
		// Reset the counter only by what the snapshot covered; units that
		// completed during the write keep the trigger armed.
		covered := snap.Count()
		r.mu.Lock()
		r.sinceLast = r.done.Count() - covered
		r.mu.Unlock()
	}
}

// Finish shuts the flusher down and settles the checkpoint file:
//
//   - complete=true: the run finished every unit — the checkpoint is deleted
//     (the caller's final output now carries the result).
//   - complete=false: the run was canceled, degraded, or failed — a final
//     flush preserves the partial work so a later run resumes it. If the run
//     died of a simulated kill, the final flush is skipped: a really-killed
//     process would not have flushed either, and the crash-consistency tests
//     rely on the disk state being exactly what a kill leaves.
func (r *Runner) Finish(complete bool) error {
	if r.cfg.Path == "" {
		return nil
	}
	r.stop()
	r.flusher.Wait()
	r.errMu.Lock()
	ferr := r.flushErr
	r.errMu.Unlock()
	if ferr != nil && fault.IsKilled(ferr) {
		return ferr
	}
	if complete {
		return Remove(r.cfg.Path)
	}
	r.mu.Lock()
	dirty := r.sinceLast > 0
	r.mu.Unlock()
	if dirty {
		r.flushOnce()
		r.errMu.Lock()
		ferr = r.flushErr
		r.errMu.Unlock()
	}
	return ferr
}

// Abort shuts the flusher down without a final flush, a deletion, or any
// other write — used when the run died of a simulated kill (a really killed
// process would not have written anything more) or when resume decoding
// failed before compute started.
func (r *Runner) Abort() {
	if r.cfg.Path == "" {
		return
	}
	r.stop()
	r.flusher.Wait()
}

func (r *Runner) stop() {
	r.stopOnce.Do(func() { close(r.quit) })
}
