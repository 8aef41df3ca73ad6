// Package cliutil holds the exit-code and reporting conventions shared by
// the four binaries:
//
//   - exit 0: success, including acceptable deadline-degraded (partial)
//     results — the partial notice goes to stderr, never stdout, so piped
//     output stays machine-readable;
//   - exit 1: real errors (bad flags are 2, from package flag);
//   - exit 130: SIGINT/SIGTERM cancellation, the shell convention for
//     128+SIGINT, so scripts and supervisors can tell an interrupted run
//     from a failed one.
package cliutil

import (
	"context"
	"errors"
	"fmt"
	"os"
	"time"

	"soi/internal/checkpoint"
)

// Config aliases checkpoint.Config so commands can hold one without
// importing the checkpoint package directly.
type Config = checkpoint.Config

// Exit codes (see the package comment).
const (
	ExitOK       = 0
	ExitError    = 1
	ExitCanceled = 130
)

// Fail prints err on stderr with the tool prefix and exits with the
// appropriate code: 130 for signal cancellation, 1 otherwise.
func Fail(tool string, err error) {
	if errors.Is(err, context.Canceled) {
		fmt.Fprintf(os.Stderr, "%s: canceled\n", tool)
		os.Exit(ExitCanceled)
	}
	fmt.Fprintf(os.Stderr, "%s: %v\n", tool, err)
	os.Exit(ExitError)
}

// Partial inspects the result of a run under a checkpoint.Config (every
// sampling algorithm takes one): for a deadline-degraded result it
// prints the notice on stderr and reports handled=true (the caller keeps the
// partial result and continues); for nil it reports false; anything else is
// a real error the caller passes to Fail.
func Partial(tool string, err error) (handled bool) {
	var pe *checkpoint.PartialError
	if errors.As(err, &pe) {
		fmt.Fprintf(os.Stderr, "%s: partial result: deadline reached after %d/%d units (±%.4f error bound); checkpoint kept for resume\n",
			tool, pe.Achieved, pe.Requested, pe.Bound)
		return true
	}
	return false
}

// RetryStale runs one resumable phase and handles unusable checkpoints: if
// fn fails because the checkpoint at path is stale (the graph, parameters,
// or seed changed since it was written) or corrupt, the file is discarded
// with a loud stderr notice and fn runs once more from scratch. The library
// deliberately refuses to resume such files; "warn, discard, recompute" is
// the right response for a command-line tool, silent resumption is not.
func RetryStale[T any](tool, path string, fn func() (T, error)) (T, error) {
	out, err := fn()
	if path == "" || (!errors.Is(err, checkpoint.ErrStale) && !errors.Is(err, checkpoint.ErrCorrupt)) {
		return out, err
	}
	fmt.Fprintf(os.Stderr, "%s: discarding unusable checkpoint %s (%v); starting fresh\n", tool, path, err)
	if rerr := checkpoint.Remove(path); rerr != nil {
		return out, rerr
	}
	return fn()
}

// ResumeConfig assembles the checkpoint/budget configuration from the
// -checkpoint and -deadline flags. path is the checkpoint file ("" disables
// checkpointing); deadline is a duration from now (0 disables the budget).
// Resume progress is reported on stderr.
func ResumeConfig(tool, path string, deadline time.Duration) checkpoint.Config {
	cfg := checkpoint.Config{Path: path}
	if deadline > 0 {
		cfg.Budget = checkpoint.Budget{Deadline: time.Now().Add(deadline)}
	}
	cfg.OnResume = func(done, total int) {
		fmt.Fprintf(os.Stderr, "%s: resumed from checkpoint %s: %d/%d units already complete\n", tool, path, done, total)
	}
	return cfg
}
