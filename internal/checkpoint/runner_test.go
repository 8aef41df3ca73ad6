package checkpoint

import (
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"testing"
	"time"

	"soi/internal/bound"
)

// encodeDone serializes the done-unit indexes — enough payload structure to
// verify flush/resume plumbing.
func encodeDone(done *Bitmap) ([]byte, error) {
	var out []byte
	for i := 0; i < done.Len(); i++ {
		if done.Get(i) {
			out = binary.LittleEndian.AppendUint32(out, uint32(i))
		}
	}
	return out, nil
}

// keyOf returns a constant run key.
func keyOf(v uint64) func() uint64 { return func() uint64 { return v } }

// TestStartKeyIsLazy pins the run key's cost to checkpointed runs: hashing
// the inputs (a whole graph, for most algorithms) must not happen on a plain
// or budget-only run, and happens exactly once when a checkpoint path is set.
func TestStartKeyIsLazy(t *testing.T) {
	calls := 0
	key := func() uint64 { calls++; return 7 }
	for _, cfg := range []Config{{}, {Budget: Budget{Deadline: time.Now().Add(time.Hour)}}} {
		r, st, err := Start(context.Background(), cfg, key, 10, encodeDone)
		if err != nil || st != nil {
			t.Fatalf("Start(%+v) = %v, %v", cfg, st, err)
		}
		r.MarkDone(0)
		if err := r.Settle(nil); err != nil {
			t.Fatal(err)
		}
	}
	if calls != 0 {
		t.Fatalf("key computed %d times without a checkpoint path, want 0", calls)
	}
	r, _, err := Start(context.Background(), Config{Path: filepath.Join(t.TempDir(), "run.ckpt")}, key, 10, encodeDone)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(0)
	if err := r.Settle(nil); err != nil {
		t.Fatal(err)
	}
	if calls != 1 {
		t.Fatalf("key computed %d times with a checkpoint path, want 1", calls)
	}
}

func TestRunnerFlushOnCountTrigger(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Path: path, FlushEvery: 2, FlushInterval: time.Hour}
	r, st, err := Start(context.Background(), cfg, keyOf(1), 10, encodeDone)
	if err != nil {
		t.Fatal(err)
	}
	if st != nil {
		t.Fatal("fresh run reported a resumed state")
	}
	for i := 0; i < 4; i++ {
		r.MarkDone(i)
	}
	// The flusher runs in the background; wait for the file to appear.
	deadline := time.Now().Add(5 * time.Second)
	for {
		if st, err := Load(path, 1, 10); err == nil && st != nil {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("count-triggered flush never wrote the checkpoint")
		}
		time.Sleep(time.Millisecond)
	}
	if err := r.Finish(false); err != nil {
		t.Fatal(err)
	}
	st, err = Load(path, 1, 10)
	if err != nil || st == nil {
		t.Fatalf("after Finish(false): st=%v err=%v", st, err)
	}
	if st.Done.Count() != 4 {
		t.Fatalf("checkpoint has %d units, want 4", st.Done.Count())
	}
	if len(st.Payload) != 16 {
		t.Fatalf("payload %d bytes, want 16", len(st.Payload))
	}
}

func TestRunnerFinishCompleteDeletes(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	r, _, err := Start(context.Background(), Config{Path: path, FlushEvery: 1, FlushInterval: time.Hour}, keyOf(1), 2, encodeDone)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(0)
	r.MarkDone(1)
	if err := r.Finish(true); err != nil {
		t.Fatal(err)
	}
	if st, err := Load(path, 1, 2); err != nil || st != nil {
		t.Fatalf("checkpoint survived a complete run: st=%v err=%v", st, err)
	}
}

func TestRunnerResume(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := Config{Path: path, FlushEvery: 1, FlushInterval: time.Hour}
	r, _, err := Start(context.Background(), cfg, keyOf(1), 5, encodeDone)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(2)
	r.MarkDone(4)
	if err := r.Finish(false); err != nil {
		t.Fatal(err)
	}

	var resumedDone, resumedTotal int
	cfg.OnResume = func(done, total int) { resumedDone, resumedTotal = done, total }
	r2, st, err := Start(context.Background(), cfg, keyOf(1), 5, encodeDone)
	if err != nil {
		t.Fatal(err)
	}
	if st == nil || st.Done.Count() != 2 || !st.Done.Get(2) || !st.Done.Get(4) {
		t.Fatalf("resumed state = %+v", st)
	}
	if resumedDone != 2 || resumedTotal != 5 {
		t.Fatalf("OnResume(%d, %d), want (2, 5)", resumedDone, resumedTotal)
	}
	if snap := r2.Snapshot(); snap.Count() != 2 {
		t.Fatalf("Snapshot count = %d, want 2 (preloaded)", snap.Count())
	}
	// A stale checkpoint (different fingerprint) aborts before compute.
	if _, _, err := Start(context.Background(), Config{Path: path}, keyOf(99), 5, encodeDone); !errors.Is(err, ErrStale) {
		t.Fatalf("stale resume: %v, want ErrStale", err)
	}
	r2.Abort()
}

func TestGateDeadline(t *testing.T) {
	r, _, err := Start(context.Background(), Config{Budget: Budget{Deadline: time.Now().Add(-time.Second)}}, keyOf(1), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	// With nothing done yet the gate admits one unit even past the deadline
	// (a partial result is never empty) …
	if err := r.Gate(); err != nil {
		t.Fatalf("Gate before first unit = %v, want nil", err)
	}
	// … and closes as soon as one unit completed.
	r.MarkDone(0)
	if err := r.Gate(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Gate past deadline = %v, want ErrDeadline", err)
	}
	// Unbounded budget never gates.
	r2, _, err := Start(context.Background(), Config{}, keyOf(1), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r2.Gate(); err != nil {
		t.Fatalf("unbounded Gate = %v", err)
	}
}

func TestGateThroughputMargin(t *testing.T) {
	// With one unit done and almost no time left, the throughput check must
	// stop the run even though the deadline has not strictly passed.
	r, _, err := Start(context.Background(), Config{Budget: Budget{Deadline: time.Now().Add(2 * time.Millisecond)}}, keyOf(1), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	if err := r.Gate(); err != nil {
		t.Fatalf("first unit gated: %v", err) // done == 0: always attempt one
	}
	time.Sleep(5 * time.Millisecond)
	r.MarkDone(0)
	if err := r.Gate(); !errors.Is(err, ErrDeadline) {
		t.Fatalf("Gate = %v, want ErrDeadline", err)
	}
}

func TestPartialOutcome(t *testing.T) {
	r, _, err := Start(context.Background(), Config{Budget: Budget{Deadline: time.Now().Add(-time.Second), MinWorlds: 3}}, keyOf(1), 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	r.MarkDone(0)
	// 1 achieved < MinWorlds 3: hard error, not a partial result.
	if err := r.Partial(10); errors.Is(err, ErrPartial) || !errors.Is(err, ErrDeadline) {
		t.Fatalf("below minimum: %v, want hard ErrDeadline", err)
	}
	r.MarkDone(1)
	r.MarkDone(2)
	err = r.Partial(10)
	var pe *PartialError
	if !errors.As(err, &pe) || !errors.Is(err, ErrPartial) {
		t.Fatalf("Partial = %v, want *PartialError wrapping ErrPartial", err)
	}
	if pe.Achieved != 3 || pe.Requested != 10 || pe.Bound != bound.Hoeffding(3, bound.ServingDelta).Eps {
		t.Fatalf("PartialError = %+v", pe)
	}
}
