package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"io"

	"soi/internal/checkpoint"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// BuildResumable is BuildCtx under the crash-safe execution layer: completed
// worlds are periodically checkpointed (atomically, off the worker hot path)
// so a crash, OOM-kill, cancellation, or deadline loses at most one flush
// interval of work instead of the whole build. A rerun with the same graph,
// options, and checkpoint path resumes from the bitmap of completed worlds
// and — because world i depends only on its own split generator — produces
// an index bit-identical to an uninterrupted build.
//
// With cfg.Budget.Deadline set, the build stops sampling when the deadline
// nears and returns a partial index over the completed worlds together with
// a *checkpoint.PartialError (errors.Is(err, checkpoint.ErrPartial)); the
// checkpoint is kept so a later run can finish the remaining worlds. The
// checkpoint is deleted only when every world completes.
func BuildResumable(ctx context.Context, g *graph.Graph, opts Options, cfg checkpoint.Config) (*Index, error) {
	if opts.Samples < 1 {
		return nil, fmt.Errorf("index: Samples must be >= 1, got %d", opts.Samples)
	}
	if opts.Model == LT {
		if err := worlds.ValidateLTWeights(g); err != nil {
			return nil, err
		}
		g.Reverse()
	}

	// The registry can arrive on either options struct; the checkpoint Config
	// is how cliutil threads it into resumable paths.
	if opts.Telemetry == nil {
		opts.Telemetry = cfg.Telemetry
	}
	idx := &Index{g: g, entries: make([]worldEntry, opts.Samples), tel: opts.Telemetry}
	master := rng.New(opts.Seed)
	gens := make([]*rng.PCG32, opts.Samples)
	for i := range gens {
		gens[i] = master.Split(uint64(i))
	}

	nodes := uint32(g.NumNodes())
	encode := func(done *checkpoint.Bitmap) ([]byte, error) {
		var buf bytes.Buffer
		for i := 0; i < opts.Samples; i++ {
			if !done.Get(i) {
				continue
			}
			if err := binary.Write(&buf, binary.LittleEndian, uint32(i)); err != nil {
				return nil, err
			}
			if err := writeEntry(&buf, &idx.entries[i]); err != nil {
				return nil, err
			}
		}
		return buf.Bytes(), nil
	}

	r, st, err := checkpoint.Start(cfg, BuildFingerprint(g, opts), opts.Samples, encode)
	if err != nil {
		return nil, err
	}
	resumed := checkpoint.NewBitmap(opts.Samples)
	if st != nil {
		if err := decodeBuildPayload(st, nodes, idx.entries); err != nil {
			r.Abort()
			return nil, err
		}
		resumed = st.Done
	}

	bm := newBuildMetrics(opts.Telemetry)
	sp := opts.Telemetry.StartSpan("index.build")
	runErr := pool.Run(ctx, opts.Samples,
		pool.Options{Workers: opts.Workers, Progress: opts.Progress, Telemetry: opts.Telemetry},
		func(_, i int) error {
			if resumed.Get(i) {
				return nil
			}
			if err := r.Gate(); err != nil {
				return err
			}
			idx.entries[i] = buildEntry(g, gens[i], opts, bm)
			sp.AddUnits(1)
			r.MarkDone(i, nil)
			return nil
		})
	sp.End()

	switch {
	case runErr == nil:
		if ferr := r.Finish(true); ferr != nil {
			return nil, ferr
		}
		return idx, nil
	case errors.Is(runErr, checkpoint.ErrDeadline):
		if ferr := r.Finish(false); ferr != nil && fault.IsKilled(ferr) {
			return nil, ferr
		}
		outcome := r.Partial(opts.Samples)
		if !errors.Is(outcome, checkpoint.ErrPartial) {
			return nil, outcome
		}
		return idx.compact(r.Snapshot()), outcome
	case fault.IsKilled(runErr):
		// A really killed process writes nothing more: no final flush.
		r.Abort()
		return nil, runErr
	default:
		// Cancellation or a worker failure: flush so a later run resumes.
		r.Finish(false)
		return nil, runErr
	}
}

// compact returns an index over only the worlds marked done, in ascending
// world order — the partial result of a deadline-bounded build.
func (x *Index) compact(done *checkpoint.Bitmap) *Index {
	out := &Index{g: x.g, entries: make([]worldEntry, 0, done.Count()), tel: x.tel}
	for i := 0; i < done.Len(); i++ {
		if done.Get(i) {
			out.entries = append(out.entries, x.entries[i])
		}
	}
	return out
}

// BuildFingerprint keys BuildResumable checkpoints: any change to the graph,
// the sample count, the seed, the model, or the reduction options yields a
// different fingerprint and makes old checkpoints checkpoint.ErrStale.
func BuildFingerprint(g *graph.Graph, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("index.Build").
		Graph(g).
		Int(opts.Samples).
		Uint64(opts.Seed).
		Bool(opts.TransitiveReduction).
		Int(opts.MaxExactReduction).
		Int(int(opts.Model)).
		Sum()
}

// decodeBuildPayload restores completed worlds from a checkpoint payload.
// The CRC32-C footer already vouches for the bytes; these checks catch
// logic-level mismatches and report them as corruption.
func decodeBuildPayload(st *checkpoint.State, nodes uint32, entries []worldEntry) error {
	br := bytes.NewReader(st.Payload)
	seen := 0
	for {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%w: index payload: %v", checkpoint.ErrCorrupt, err)
		}
		if int(id) >= len(entries) || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: index payload names world %d outside the done bitmap", checkpoint.ErrCorrupt, id)
		}
		e, err := readEntry(br, nodes, int(id))
		if err != nil {
			return fmt.Errorf("%w: index payload world %d: %v", checkpoint.ErrCorrupt, id, err)
		}
		entries[id] = e
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: index payload covers %d worlds, bitmap records %d", checkpoint.ErrCorrupt, seen, st.Done.Count())
	}
	return nil
}
