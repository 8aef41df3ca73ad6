// Command sphere computes spheres of influence (typical cascades) for nodes
// of a probabilistic graph.
//
// Typical usage:
//
//	sphere -graph network.tsv -node 42 -samples 1000 -cost-samples 1000
//	sphere -graph network.tsv -all -out spheres.tsv
//	sphere -graph network.tsv -node 42 -index idx.bin        # reuse an index
//	sphere -graph network.tsv -build-index idx.bin           # build + save
//	sphere -graph network.tsv -all -checkpoint run.ckpt      # crash-safe
//	sphere -graph network.tsv -all -deadline 10m             # best effort
//
// The graph file is an edge list: "from to probability" per line.
//
// Exit codes: 0 success (including deadline-degraded partial results, whose
// notices go to stderr), 1 real errors, 130 SIGINT/SIGTERM cancellation.
// With -checkpoint, interrupted runs flush their progress and a rerun with
// the same flags resumes where they stopped.
package main

import (
	"bufio"
	"bytes"
	"cmp"
	"context"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soi/internal/atomicfile"
	"soi/internal/bound"
	"soi/internal/cliutil"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
	"soi/internal/worlds"
)

func main() {
	var (
		graphPath   = flag.String("graph", "", "edge-list TSV file (required)")
		node        = flag.Int("node", -1, "query node (original id); -1 with -all computes every node")
		all         = flag.Bool("all", false, "compute the typical cascade of every node")
		samples     = flag.Int("samples", 1000, "number of possible worlds ℓ")
		costSamples = flag.Int("cost-samples", 0, "held-out samples for the expected-cost (stability) estimate; 0 disables")
		seed        = flag.Uint64("seed", 1, "random seed")
		algorithm   = flag.String("algorithm", "prefix", "median algorithm: prefix, majority or exact")
		indexPath   = flag.String("index", "", "load a previously built index instead of sampling")
		buildIndex  = flag.String("build-index", "", "build the index, save it to this path, and exit")
		sketchOut   = flag.String("sketch-out", "", "build a combined bottom-k reachability sketch over the index worlds, save it to this path, and exit (requires -index or -build-index; serve with soid -sketch)")
		sketchK     = flag.Int("sketch-k", sketch.DefaultK, "bottom-k sketch size: larger k tightens the Cohen bound (ε ≈ sqrt(6·ln(2/δ)/(k-1))) at k×8 bytes per node")
		ltModel     = flag.Bool("lt", false, "sample the index this run builds under the Linear Threshold model (edge weights must satisfy Σ_in <= 1); an -index file records its own model")
		outPath     = flag.String("out", "", "write results here instead of stdout")
		storePath   = flag.String("store", "", "with -all: also persist the spheres to this file (see cmd/infmax -spheres)")
		modes       = flag.Int("modes", 0, "with -node: also report up to this many cascade modes (die-out vs take-off)")
		shards      = flag.Int("shards", 0, "partition the graph into this many shards and write per-shard serving artifacts (requires -shard-out)")
		shardOut    = flag.String("shard-out", "", "path prefix for -shards artifacts: PREFIX-shardN.{tsv,idx,spheres} plus PREFIX-topology.json")
		ckptPath    = flag.String("checkpoint", "", "checkpoint file prefix: long phases periodically save progress there and a rerun resumes it")
		deadline    = flag.Duration("deadline", 0, "wall-clock budget; when it nears, sampling stops and a best-effort partial result is returned (notice on stderr)")
		debugAddr   = flag.String("debug-addr", "", "serve Prometheus /metrics, /debug/traces and pprof on this address while running (e.g. localhost:6060)")
		statsJSON   = flag.String("stats-json", "", "write the machine-readable run report (metrics, spans, run info) to this file on exit")
	)
	flag.Parse()
	// Ctrl-C / SIGTERM cancel the context: compute workers stop promptly,
	// progress is flushed to the checkpoint (with -checkpoint), and output
	// files — written atomically — are never left truncated.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, rt, err := cliutil.StartTelemetry(ctx, "sphere", *debugAddr, *statsJSON)
	if err != nil {
		cliutil.Fail("sphere", err)
	}
	if err := run(ctx, *graphPath, *node, *all, *samples, *costSamples, *seed,
		*algorithm, *indexPath, *buildIndex, *sketchOut, *sketchK, *ltModel, *outPath, *storePath, *modes,
		*shards, *shardOut, *ckptPath, *deadline, rt); err != nil {
		rt.Finish(err)
	}
	rt.Flush()
}

func run(ctx context.Context, graphPath string, node int, all bool, samples, costSamples int, seed uint64,
	algorithm, indexPath, buildIndexPath, sketchOut string, sketchK int, lt bool, outPath, storePath string, modes int,
	shards int, shardOut string, ckptPath string, deadline time.Duration, rt *cliutil.RunTelemetry) error {
	if graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if sketchOut != "" {
		if err := sketch.CheckServable(cmp.Or(sketchK, sketch.DefaultK)); err != nil {
			return fmt.Errorf("-sketch-k: %w", err)
		}
	}
	g, orig, err := graph.LoadFile(graphPath)
	if err != nil {
		return err
	}
	model := worlds.IC
	if lt {
		model = worlds.LT
	}
	tel := rt.Registry
	if shards > 0 {
		return partitionShards(ctx, g, orig, shards, shardOut, samples, costSamples, seed, model, tel)
	}
	tel.SetSeed(seed)
	tel.SetParam("samples", fmt.Sprint(samples))
	tel.SetParam("algorithm", algorithm)
	tel.SetParam("cost_samples", fmt.Sprint(costSamples))

	var alg core.MedianAlgorithm
	switch algorithm {
	case "prefix":
		alg = core.MedianPrefix
	case "majority":
		alg = core.MedianMajority
	case "exact":
		alg = core.MedianExact
	default:
		return fmt.Errorf("unknown -algorithm %q", algorithm)
	}

	var x *index.Index
	if indexPath != "" {
		x, err = index.LoadFile(indexPath, g)
		if err == nil && lt && x.Model() != model {
			err = fmt.Errorf("-lt contradicts %s, which was sampled under %s; drop -lt or rebuild the index with it", indexPath, x.Model())
		}
		if err == nil {
			x.SetTelemetry(tel)
		}
	} else {
		cfg := cliutil.ResumeConfig("sphere", suffix(ckptPath, ".idx"), deadline)
		x, err = cliutil.RetryStale("sphere", cfg.Path, func() (*index.Index, error) {
			return index.Build(ctx, g, index.Options{Samples: samples, Seed: seed, Model: model}, cfg)
		})
		if cliutil.Partial("sphere", err) {
			err = nil // keep the partial index; later phases degrade further
		}
	}
	if err != nil {
		return err
	}
	// The index holds the graph's fingerprint: a load checked it against g
	// and a build computed it, so the run report need not hash g again.
	tel.SetGraphHash(x.GraphFingerprint())
	tel.SetSamplesAchieved(int64(x.NumWorlds()))
	if buildIndexPath != "" {
		if err := x.SaveFile(buildIndexPath); err != nil {
			return err
		}
		fmt.Printf("index with %d worlds saved to %s\n", x.NumWorlds(), buildIndexPath)
	}
	if sketchOut != "" {
		if indexPath == "" && buildIndexPath == "" {
			return fmt.Errorf("-sketch-out requires -index or -build-index: the sketch is fingerprint-keyed to an index file")
		}
		return saveSketch(ctx, x, sketchOut, sketchK, seed)
	}
	if buildIndexPath != "" {
		return nil
	}

	// The report is buffered and flushed at the end: with -out it is then
	// written atomically (temp file + rename), so a cancellation or crash
	// mid-run never leaves a truncated report behind.
	var buf bytes.Buffer
	w := bufio.NewWriter(&buf)

	opts := core.Options{Algorithm: alg, CostSamples: costSamples, CostSeed: seed ^ 0xC057}
	name := func(v graph.NodeID) int64 {
		if orig != nil {
			return orig[v]
		}
		return int64(v)
	}
	report := func(res core.Result) {
		fmt.Fprintf(w, "node %d: |sphere|=%d sample-cost=%.4f", name(res.Seeds[0]), res.Size(), res.SampleCost)
		if res.ExpectedCost >= 0 {
			fmt.Fprintf(w, " stability=%.4f", res.ExpectedCost)
		}
		fmt.Fprintf(w, " time=%s\n  members:", res.MedianTime)
		for _, v := range res.Set {
			fmt.Fprintf(w, " %d", name(v))
		}
		fmt.Fprintln(w)
	}

	switch {
	case all:
		cfg := cliutil.ResumeConfig("sphere", suffix(ckptPath, ".all"), deadline)
		results, err := cliutil.RetryStale("sphere", cfg.Path, func() ([]core.Result, error) {
			return core.ComputeAll(ctx, x, opts, cfg)
		})
		partial := cliutil.Partial("sphere", err)
		if err != nil && !partial {
			return err
		}
		for _, res := range results {
			if res.Seeds == nil {
				continue // node not reached before the deadline
			}
			report(res)
		}
		if storePath != "" && !partial {
			if err := core.SaveSpheresFile(storePath, x.Fingerprint(), results); err != nil {
				return err
			}
			fmt.Fprintf(w, "spheres persisted to %s\n", storePath)
		}
		if partial && storePath != "" {
			fmt.Fprintln(os.Stderr, "sphere: partial sweep not persisted to -store; rerun with the same -checkpoint to finish it")
		}
	case node >= 0:
		// Translate the original id back to the dense space.
		dense := graph.NodeID(-1)
		if orig == nil {
			dense = graph.NodeID(node)
		} else {
			for d, o := range orig {
				if o == int64(node) {
					dense = graph.NodeID(d)
					break
				}
			}
		}
		if dense < 0 || int(dense) >= g.NumNodes() {
			return fmt.Errorf("node %d not in graph", node)
		}
		if err := ctx.Err(); err != nil {
			return err
		}
		report(core.Compute(x, dense, opts))
		if modes > 1 {
			ms := core.AnalyzeModes(x, dense, modes)
			for i, m := range ms {
				fmt.Fprintf(w, "  mode %d: p=%.3f |median|=%d within-cost=%.3f\n",
					i+1, m.Probability, len(m.Median), m.Cost)
			}
			fmt.Fprintf(w, "  take-off probability: %.3f\n", core.TakeoffProbability(ms))
		}
	default:
		return fmt.Errorf("specify -node or -all")
	}

	if err := w.Flush(); err != nil {
		return err
	}
	if outPath != "" {
		return atomicfile.WriteFile(outPath, func(f io.Writer) error {
			_, err := f.Write(buf.Bytes())
			return err
		})
	}
	_, err = os.Stdout.Write(buf.Bytes())
	return err
}

// saveSketch builds the combined bottom-k sketch over x's worlds and writes
// it as a SOISKC02 file, fingerprint-keyed to x — the fingerprint of x's
// index file, so soid -sketch accepts it alongside soid -index of that file.
func saveSketch(ctx context.Context, x *index.Index, path string, k int, seed uint64) error {
	sk, err := sketch.Build(ctx, x, sketch.Options{K: k, Seed: seed})
	if err != nil {
		return err
	}
	if err := sk.SaveFile(path); err != nil {
		return err
	}
	fmt.Printf("sketch k=%d over %d worlds (%d live), ±%.1f%% at 95%%, %.1f KiB saved to %s\n",
		sk.K(), sk.Worlds(), sk.LiveWorlds(), 100*bound.BottomK(sk.K(), bound.ServingDelta).Eps,
		float64(sk.MemoryFootprint())/1024, path)
	return nil
}

// suffix derives a per-phase checkpoint file from the -checkpoint prefix;
// an empty prefix disables checkpointing for every phase.
func suffix(base, s string) string {
	if base == "" {
		return ""
	}
	return base + s
}
