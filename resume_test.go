package soi

import (
	"bytes"
	"context"
	"errors"
	"math"
	"path/filepath"
	"testing"
	"time"

	"soi/internal/fault"
)

// The crash-consistency contract under test: for every resumable compute
// path, (deadline-interrupt → resume) and (simulated kill mid-flush → resume)
// must produce results bit-identical to an uninterrupted run with the same
// seed — the checkpoint layer may lose progress, never correctness.

func resumeGraph(t *testing.T) *Graph {
	t.Helper()
	topo, err := Generate(GenConfig{Model: "ba", N: 80, M: 3, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	return g
}

// pastDeadline is a budget that is already exhausted: the run completes a
// handful of units (at least one) and stops with a partial result.
func pastDeadline() Budget {
	return Budget{Deadline: time.Now().Add(-time.Second)}
}

func indexBytes(t *testing.T, x *Index) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// interruptResume drives one resumable path through the full gauntlet:
//
//  1. a deadline-bounded run returns ErrPartial and leaves a checkpoint;
//  2. a resumed run is killed mid-checkpoint-flush (failpoint), leaving the
//     checkpoint exactly as it was;
//  3. a final resumed run completes from the surviving checkpoint.
//
// run(cfg) executes the path and returns its result's canonical bytes (so
// "bit-identical" is literal); runs with cfg.Path == "" are the baseline.
func interruptResume(t *testing.T, path string, run func(cfg ResumeConfig) ([]byte, error)) {
	t.Helper()
	baseline, err := run(ResumeConfig{})
	if err != nil {
		t.Fatalf("uninterrupted run: %v", err)
	}

	// Stage 1: deadline-degraded run, checkpoint kept.
	cfg := ResumeConfig{Path: path, FlushEvery: 1, FlushInterval: time.Hour}
	cfg.Budget = pastDeadline()
	if _, err := run(cfg); !errors.Is(err, ErrPartial) {
		t.Fatalf("deadline run: err = %v, want ErrPartial", err)
	}

	// Stage 2: resume, then die mid-checkpoint-flush. The kill fires before
	// any bytes are written, so the stage-1 checkpoint survives untouched.
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.CheckpointFlush, fault.Failpoint{Kind: fault.KindKill}); err != nil {
		t.Fatal(err)
	}
	resumed := 0
	killCfg := ResumeConfig{Path: path, FlushEvery: 1, FlushInterval: time.Hour,
		OnResume: func(done, total int) { resumed = done }}
	if _, err := run(killCfg); !fault.IsKilled(err) {
		t.Fatalf("killed run: err = %v, want simulated kill", err)
	}
	if resumed < 1 {
		t.Fatalf("killed run resumed %d units, want >= 1 (stage-1 checkpoint missing)", resumed)
	}
	fault.Reset()

	// Stage 3: resume from the surviving checkpoint and finish.
	resumed = 0
	finalCfg := ResumeConfig{Path: path, FlushEvery: 1, FlushInterval: time.Hour,
		OnResume: func(done, total int) { resumed = done }}
	final, err := run(finalCfg)
	if err != nil {
		t.Fatalf("final resumed run: %v", err)
	}
	if resumed < 1 {
		t.Fatal("final run did not resume from the checkpoint")
	}
	if !bytes.Equal(final, baseline) {
		t.Fatalf("resumed result differs from uninterrupted run (%d vs %d bytes)", len(final), len(baseline))
	}
	// Completion deletes the checkpoint; a fresh run starts from zero.
	resumed = -1
	again, err := run(ResumeConfig{Path: path, OnResume: func(done, total int) { resumed = done }})
	if err != nil {
		t.Fatal(err)
	}
	if resumed != -1 {
		t.Fatalf("checkpoint survived completion (resumed=%d)", resumed)
	}
	if !bytes.Equal(again, baseline) {
		t.Fatal("post-completion rerun differs from baseline")
	}
}

func TestBuildIndexInterruptResume(t *testing.T) {
	g := resumeGraph(t)
	opts := IndexOptions{Samples: 40, Seed: 11}
	interruptResume(t, filepath.Join(t.TempDir(), "idx.ckpt"), func(cfg ResumeConfig) ([]byte, error) {
		x, err := BuildIndex(context.Background(), g, opts, cfg)
		if err != nil {
			return nil, err
		}
		return indexBytes(t, x), nil
	})
}

func TestAllTypicalCascadesInterruptResume(t *testing.T) {
	g := resumeGraph(t)
	x, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 30, Seed: 12}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	opts := TypicalOptions{CostSamples: 10, CostSeed: 13}
	interruptResume(t, filepath.Join(t.TempDir(), "sweep.ckpt"), func(cfg ResumeConfig) ([]byte, error) {
		results, err := AllTypicalCascades(context.Background(), x, opts, cfg)
		if err != nil {
			return nil, err
		}
		// Canonical bytes: the sphere set and both cost estimates per node.
		// Timings are wall-clock and excluded by design.
		var buf bytes.Buffer
		for i := range results {
			r := &results[i]
			fmtSphere(&buf, r)
		}
		return buf.Bytes(), nil
	})
}

func fmtSphere(buf *bytes.Buffer, r *Sphere) {
	buf.WriteString("[")
	for _, v := range r.Set {
		writeInt(buf, int64(v))
	}
	buf.WriteString("]")
	writeFloatBits(buf, r.SampleCost)
	writeFloatBits(buf, r.ExpectedCost)
}

func writeInt(buf *bytes.Buffer, v int64) {
	var tmp [8]byte
	for i := 0; i < 8; i++ {
		tmp[i] = byte(v >> (8 * i))
	}
	buf.Write(tmp[:])
}

func writeFloatBits(buf *bytes.Buffer, f float64) {
	writeInt(buf, int64(math.Float64bits(f)))
}

func TestExpectedSpreadInterruptResume(t *testing.T) {
	g := resumeGraph(t)
	seeds := []NodeID{0, 3, 9}
	interruptResume(t, filepath.Join(t.TempDir(), "mc.ckpt"), func(cfg ResumeConfig) ([]byte, error) {
		spread, err := ExpectedSpread(context.Background(), g, seeds, 200, 17, ModelIC, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		writeFloatBits(&buf, spread)
		return buf.Bytes(), nil
	})
}

func TestSelectSeedsRRInterruptResume(t *testing.T) {
	g := resumeGraph(t)
	interruptResume(t, filepath.Join(t.TempDir(), "rr.ckpt"), func(cfg ResumeConfig) ([]byte, error) {
		sel, err := SelectSeedsRR(context.Background(), g, 4, RROptions{Sets: 300, Seed: 23}, ModelIC, cfg)
		if err != nil {
			return nil, err
		}
		var buf bytes.Buffer
		for i, s := range sel.Seeds {
			writeInt(&buf, int64(s))
			writeFloatBits(&buf, sel.Gains[i])
		}
		return buf.Bytes(), nil
	})
}

// TestDeadlineReturnsUsablePartial pins the Budget contract on its own: a
// bounded run yields an ErrPartial whose achieved count meets MinWorlds, and
// the partial result itself is usable (a valid, smaller index).
func TestDeadlineReturnsUsablePartial(t *testing.T) {
	g := resumeGraph(t)
	cfg := ResumeConfig{Budget: Budget{Deadline: time.Now().Add(-time.Second), MinWorlds: 1}}
	x, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 50, Seed: 31}, cfg)
	var pe *PartialError
	if !errors.As(err, &pe) {
		t.Fatalf("err = %v, want *PartialError", err)
	}
	if pe.Achieved < 1 || pe.Achieved >= 50 || pe.Requested != 50 {
		t.Fatalf("PartialError = %+v", pe)
	}
	if pe.Bound <= 0 || pe.Bound > 1 {
		t.Fatalf("error bound %v out of range", pe.Bound)
	}
	if x == nil || x.NumWorlds() != pe.Achieved {
		t.Fatalf("partial index has %d worlds, want achieved %d", x.NumWorlds(), pe.Achieved)
	}
	// The partial index answers queries.
	if res, err := AllTypicalCascades(context.Background(), x, TypicalOptions{}, ResumeConfig{}); err != nil || len(res) != g.NumNodes() {
		t.Fatalf("partial index unusable: got %d results, err %v", len(res), err)
	}
	// An impossible minimum is a hard error, not a partial result.
	cfg.Budget.MinWorlds = 51
	_, err = BuildIndex(context.Background(), g, IndexOptions{Samples: 50, Seed: 31}, cfg)
	if err == nil || errors.Is(err, ErrPartial) {
		t.Fatalf("below-minimum run: err = %v, want hard error", err)
	}
}

// TestStaleCheckpointRejected: resuming with a different seed must reject the
// checkpoint loudly instead of silently mixing incompatible partial work.
func TestStaleCheckpointRejected(t *testing.T) {
	g := resumeGraph(t)
	path := filepath.Join(t.TempDir(), "idx.ckpt")
	cfg := ResumeConfig{Path: path, FlushEvery: 1, FlushInterval: time.Hour}
	cfg.Budget = pastDeadline()
	_, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 40, Seed: 1}, cfg)
	if !errors.Is(err, ErrPartial) {
		t.Fatalf("setup run: %v", err)
	}
	_, err = BuildIndex(context.Background(), g, IndexOptions{Samples: 40, Seed: 2}, ResumeConfig{Path: path})
	if !errors.Is(err, ErrCheckpointStale) {
		t.Fatalf("seed change: err = %v, want ErrCheckpointStale", err)
	}
}
