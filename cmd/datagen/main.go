// Command datagen materializes the synthetic dataset analogs to disk:
// the weighted graph, and for learnt configurations also the topology,
// ground truth and propagation log.
//
//	datagen -dataset nethept-W -out ./data
//	datagen -all -scale 0.5 -out ./data
//	datagen -all -out ./data -checkpoint data.ckpt -deadline 2m
//
// Exit codes: 0 success (including deadline-degraded partial runs, whose
// notices go to stderr), 1 real errors, 130 SIGINT/SIGTERM cancellation.
// With -checkpoint, completed datasets are recorded after each one and an
// interrupted run resumes with the remaining datasets; the checkpoint is
// keyed by the dataset list, scale and seed, so changing any of those starts
// over instead of silently mixing configurations.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"syscall"
	"time"

	"soi/internal/atomicfile"
	"soi/internal/checkpoint"
	"soi/internal/cliutil"
	"soi/internal/datasets"
	"soi/internal/graph"
	"soi/internal/trace"
)

func main() {
	var (
		name      = flag.String("dataset", "", "configuration name (e.g. digg-S); see -list")
		all       = flag.Bool("all", false, "materialize all 12 configurations")
		list      = flag.Bool("list", false, "list configuration names and exit")
		scale     = flag.Float64("scale", 1, "dataset scale (1.0 = paper sizes / ~20)")
		seed      = flag.Uint64("seed", 0, "replica seed (0 = canonical datasets)")
		out       = flag.String("out", ".", "output directory")
		ckptPath  = flag.String("checkpoint", "", "checkpoint file: completed datasets are recorded there and a rerun skips them")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget; generation stops between datasets when it is reached (notice on stderr)")
		debugAddr = flag.String("debug-addr", "", "serve Prometheus /metrics, /debug/traces and pprof on this address while running (e.g. localhost:6060)")
		statsJSON = flag.String("stats-json", "", "write the machine-readable run report (metrics, spans, run info) to this file on exit")
	)
	flag.Parse()

	if *list {
		for _, n := range datasets.Names() {
			fmt.Println(n)
		}
		return
	}
	names := []string{*name}
	if *all {
		names = datasets.Names()
	} else if *name == "" {
		fmt.Fprintln(os.Stderr, "datagen: specify -dataset, -all or -list")
		os.Exit(cliutil.ExitError)
	}
	// Ctrl-C / SIGTERM cancel the context: generation stops between datasets
	// and the atomic writers never leave a truncated file behind.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, rt, err := cliutil.StartTelemetry(ctx, "datagen", *debugAddr, *statsJSON)
	if err != nil {
		cliutil.Fail("datagen", err)
	}
	rt.Registry.SetSeed(*seed)
	rt.Registry.SetParam("scale", fmt.Sprint(*scale))
	if err := run(ctx, names, *scale, *seed, *out, *ckptPath, *deadline, rt); err != nil {
		rt.Finish(err)
	}
	rt.Flush()
}

// fingerprint keys the checkpoint to this exact invocation: a checkpoint
// taken for a different dataset list, scale or seed is stale, not resumable.
func fingerprint(names []string, scale float64, seed uint64) uint64 {
	h := checkpoint.NewHasher()
	h.String("datagen")
	h.Int(len(names))
	for _, n := range names {
		h.String(n)
	}
	h.Float64(scale)
	h.Uint64(seed)
	return h.Sum()
}

func run(ctx context.Context, names []string, scale float64, seed uint64, outDir, ckptPath string, deadline time.Duration, rt *cliutil.RunTelemetry) error {
	if err := os.MkdirAll(outDir, 0o755); err != nil {
		return err
	}
	tel := rt.Registry
	mDatasets := tel.Counter("datagen.datasets_generated")
	mNodes := tel.Counter("datagen.nodes_written")
	mEdges := tel.Counter("datagen.edges_written")
	sp := trace.Child(ctx, "datagen.generate")
	defer sp.End()
	fp := fingerprint(names, scale, seed)
	done := checkpoint.NewBitmap(len(names))
	if ckptPath != "" {
		st, err := checkpoint.Load(ckptPath, fp, len(names))
		if errors.Is(err, checkpoint.ErrStale) || errors.Is(err, checkpoint.ErrCorrupt) {
			fmt.Fprintf(os.Stderr, "datagen: discarding unusable checkpoint %s (%v); starting fresh\n", ckptPath, err)
			if err := checkpoint.Remove(ckptPath); err != nil {
				return err
			}
			st = nil
		} else if err != nil {
			return err
		}
		if st != nil {
			done = st.Done
			fmt.Fprintf(os.Stderr, "datagen: resumed from checkpoint %s: %d/%d datasets already generated\n",
				ckptPath, done.Count(), len(names))
		}
	}
	var stopAt time.Time
	if deadline > 0 {
		stopAt = time.Now().Add(deadline)
	}
	generated := 0
	for i, n := range names {
		if done.Get(i) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		// Datasets vary in size but the budget check is coarse by design:
		// generation only stops at dataset boundaries, never mid-file.
		if !stopAt.IsZero() && generated > 0 && !time.Now().Before(stopAt) {
			fmt.Fprintf(os.Stderr, "datagen: partial result: deadline reached after %d/%d datasets; checkpoint kept for resume\n",
				done.Count(), len(names))
			return nil
		}
		d, err := datasets.Load(n, datasets.Config{Scale: scale, Seed: seed})
		if err != nil {
			return err
		}
		base := filepath.Join(outDir, d.Name)
		if err := graph.SaveFile(base+".graph.tsv", d.Graph, nil); err != nil {
			return err
		}
		written := []string{base + ".graph.tsv"}
		if d.Log != nil {
			if err := graph.SaveFile(base+".truth.tsv", d.GroundTruth, nil); err != nil {
				return err
			}
			if err := atomicfile.WriteFile(base+".log.tsv", func(w io.Writer) error {
				return d.Log.WriteTSV(w)
			}); err != nil {
				return err
			}
			written = append(written, base+".truth.tsv", base+".log.tsv")
		}
		fmt.Printf("%s: |V|=%d |E|=%d -> %v\n", d.Name, d.Graph.NumNodes(), d.Graph.NumEdges(), written)
		done.Set(i)
		generated++
		mDatasets.Inc()
		mNodes.Add(int64(d.Graph.NumNodes()))
		mEdges.Add(int64(d.Graph.NumEdges()))
		if ckptPath != "" {
			if err := checkpoint.Save(ckptPath, fp, done, nil); err != nil {
				return err
			}
		}
	}
	if ckptPath != "" && done.Count() == len(names) {
		if err := checkpoint.Remove(ckptPath); err != nil {
			return err
		}
	}
	return nil
}
