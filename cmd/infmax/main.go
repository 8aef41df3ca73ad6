// Command infmax selects viral-marketing seed sets on a probabilistic graph
// and compares methods.
//
//	infmax -graph network.tsv -k 200 -method tc
//	infmax -graph network.tsv -k 200 -method std
//	infmax -graph network.tsv -k 50 -compare       # both + baselines
//	infmax -graph network.tsv -k 200 -method rr -checkpoint run.ckpt -deadline 5m
//
// Methods: tc (typical-cascade max cover, the paper's contribution), std
// (CELF greedy on expected spread), degree, random.
//
// Exit codes: 0 success (including deadline-degraded partial results, whose
// notices go to stderr), 1 real errors, 130 SIGINT/SIGTERM cancellation.
// With -checkpoint, interrupted sampling phases flush their progress and a
// rerun with the same flags resumes where they stopped.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"
	"time"

	"soi/internal/cascade"
	"soi/internal/cliutil"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/stats"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list TSV file (required)")
		k         = flag.Int("k", 50, "seed-set size")
		method    = flag.String("method", "tc", "tc, std, rr, degree, degreediscount or random")
		compare   = flag.Bool("compare", false, "run every method and compare spreads on held-out worlds")
		samples   = flag.Int("samples", 1000, "possible worlds ℓ used by the methods")
		evalSamp  = flag.Int("eval-samples", 0, "held-out worlds for scoring (default: same as -samples)")
		seed      = flag.Uint64("seed", 1, "random seed")
		spherePth = flag.String("spheres", "", "load precomputed spheres (cmd/sphere -all -store) instead of recomputing")
		ckptPath  = flag.String("checkpoint", "", "checkpoint file prefix: sampling phases periodically save progress there and a rerun resumes it")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget; when it nears, sampling stops and a best-effort partial result is returned (notice on stderr)")
		debugAddr = flag.String("debug-addr", "", "serve Prometheus /metrics, /debug/traces and pprof on this address while running (e.g. localhost:6060)")
		statsJSON = flag.String("stats-json", "", "write the machine-readable run report (metrics, spans, run info) to this file on exit")
	)
	flag.Parse()
	// Ctrl-C / SIGTERM cancel the context so long selections stop promptly;
	// with -checkpoint their progress is flushed before exit.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ctx, rt, err := cliutil.StartTelemetry(ctx, "infmax", *debugAddr, *statsJSON)
	if err != nil {
		cliutil.Fail("infmax", err)
	}
	if err := run(ctx, *graphPath, *k, *method, *compare, *samples, *evalSamp, *seed, *spherePth, *ckptPath, *deadline, rt); err != nil {
		rt.Finish(err)
	}
	rt.Flush()
}

func run(ctx context.Context, graphPath string, k int, method string, compare bool, samples, evalSamples int, seed uint64, spherePath, ckptPath string, deadline time.Duration, rt *cliutil.RunTelemetry) error {
	if graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	g, orig, err := graph.LoadFile(graphPath)
	if err != nil {
		return err
	}
	if evalSamples == 0 {
		evalSamples = samples
	}
	tel := rt.Registry
	tel.SetSeed(seed)
	tel.SetParam("k", fmt.Sprint(k))
	tel.SetParam("method", method)
	tel.SetParam("samples", fmt.Sprint(samples))
	tel.SetParam("eval_samples", fmt.Sprint(evalSamples))
	// resume derives a per-phase checkpoint file from the -checkpoint prefix;
	// partial (deadline-degraded) results are kept and reported on stderr.
	resume := func(phase string) cliutil.Config {
		if ckptPath == "" {
			return cliutil.ResumeConfig("infmax", "", deadline)
		}
		return cliutil.ResumeConfig("infmax", ckptPath+phase, deadline)
	}
	idxCfg := resume(".idx")
	x, err := cliutil.RetryStale("infmax", idxCfg.Path, func() (*index.Index, error) {
		return index.Build(ctx, g, index.Options{Samples: samples, Seed: seed}, idxCfg)
	})
	if !cliutil.Partial("infmax", err) && err != nil {
		return err
	}
	// The built index holds the graph's fingerprint: the run report's hash.
	tel.SetGraphHash(x.GraphFingerprint())
	tel.SetSamplesAchieved(int64(x.NumWorlds()))

	spheres := func() (infmax.Spheres, error) {
		var results []core.Result
		if spherePath != "" {
			var err error
			results, err = core.LoadSpheresFor(spherePath, x)
			if err != nil || len(results) != g.NumNodes() {
				fmt.Fprintf(os.Stderr, "infmax: sphere store unusable (%v); recomputing\n", err)
				results = nil
			}
		}
		if results == nil {
			cfg := resume(".spheres")
			var err error
			results, err = cliutil.RetryStale("infmax", cfg.Path, func() ([]core.Result, error) {
				return core.ComputeAll(ctx, x, core.Options{}, cfg)
			})
			if !cliutil.Partial("infmax", err) && err != nil {
				return nil, err
			}
		}
		sp := make(infmax.Spheres, g.NumNodes())
		for v := range results {
			sp[v] = results[v].Set
		}
		return sp, nil
	}

	runMethod := func(m string) (infmax.Selection, error) {
		if err := ctx.Err(); err != nil {
			return infmax.Selection{}, err
		}
		switch m {
		case "tc":
			sp, err := spheres()
			if err != nil {
				return infmax.Selection{}, err
			}
			return infmax.TC(ctx, g, sp, k, infmax.TCOptions{})
		case "std":
			return infmax.Std(ctx, x, k)
		case "rr":
			cfg := resume(".rr")
			sel, err := cliutil.RetryStale("infmax", cfg.Path, func() (infmax.Selection, error) {
				return infmax.RR(ctx, g, k, infmax.RROptions{Sets: 20 * samples, Seed: seed}, x.Model(), cfg)
			})
			if cliutil.Partial("infmax", err) {
				err = nil
			}
			return sel, err
		case "degree":
			return infmax.Degree(g, k)
		case "degreediscount":
			return infmax.DegreeDiscount(g, k, g.MeanProb())
		case "random":
			return infmax.Random(g, k, seed)
		default:
			return infmax.Selection{}, fmt.Errorf("unknown method %q", m)
		}
	}

	name := func(v graph.NodeID) int64 {
		if orig != nil {
			return orig[v]
		}
		return int64(v)
	}

	if !compare {
		sel, err := runMethod(method)
		if err != nil {
			return err
		}
		mcCfg := resume(".mc")
		spread, err := cliutil.RetryStale("infmax", mcCfg.Path, func() (float64, error) {
			return cascade.ExpectedSpread(ctx, g, sel.Seeds, evalSamples, seed^0xE7A1, x.Model(), 0, mcCfg)
		})
		if !cliutil.Partial("infmax", err) && err != nil {
			return err
		}
		fmt.Printf("method=%s k=%d expected-spread=%.2f\nseeds:", method, len(sel.Seeds), spread)
		for _, s := range sel.Seeds {
			fmt.Printf(" %d", name(s))
		}
		fmt.Println()
		return nil
	}

	evalCfg := resume(".eval")
	eval, err := cliutil.RetryStale("infmax", evalCfg.Path, func() (*index.Index, error) {
		return index.Build(ctx, g, index.Options{Samples: evalSamples, Seed: seed ^ 0xE7A1}, evalCfg)
	})
	if !cliutil.Partial("infmax", err) && err != nil {
		return err
	}
	s := eval.NewScratch()
	tbl := stats.NewTable("method", "seeds", "expected spread", "gain evaluations")
	for _, m := range []string{"tc", "std", "rr", "degree", "degreediscount", "random"} {
		sel, err := runMethod(m)
		if err != nil {
			return err
		}
		spread := cascade.SpreadFromIndex(eval, sel.Seeds, s)
		tbl.AddRow(m, len(sel.Seeds), spread, sel.LazyEvaluations)
	}
	fmt.Printf("seed selection comparison (k=%d, ℓ=%d, eval worlds=%d)\n%s",
		k, samples, evalSamples, tbl)
	return nil
}
