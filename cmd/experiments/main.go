// Command experiments regenerates the paper's tables and figures on the
// synthetic dataset analogs (see DESIGN.md §3 and EXPERIMENTS.md).
//
//	experiments -exp table2                 # one artifact
//	experiments -exp all -scale 1 -samples 1000 -k 200
//	experiments -exp fig6 -datasets nethept-F,twitter-S -k 100
//	experiments -exp all -checkpoint ./ckpt -deadline 30m
//
// Experiments: table1 fig3 table2 fig4 fig5 fig6 fig7 fig8, or "all".
//
// Exit codes: 0 success (including deadline-degraded runs, whose notices go
// to stderr), 1 real errors, 130 SIGINT/SIGTERM cancellation. With
// -checkpoint, the heavy index builds save progress to fingerprint-keyed
// files in that directory and a rerun with the same configuration resumes
// them; with -deadline, builds past the budget return partial indexes (fewer
// worlds) and the experiments continue on them.
package main

import (
	"context"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/cliutil"
	"soi/internal/experiments"
)

func main() {
	var (
		exp       = flag.String("exp", "all", "experiment id (table1, fig3, table2, fig4..fig8, ext-lt, ext-methods), 'all' or 'ext'")
		scale     = flag.Float64("scale", 0.25, "dataset scale (1.0 = paper sizes / ~20)")
		samples   = flag.Int("samples", 200, "possible worlds ℓ (paper: 1000)")
		evalSamp  = flag.Int("eval-samples", 0, "held-out evaluation worlds (default: same as -samples)")
		k         = flag.Int("k", 50, "maximum seed-set size (paper: 200)")
		seed      = flag.Uint64("seed", 1, "random seed")
		dsets     = flag.String("datasets", "", "comma-separated dataset subset (default: all 12)")
		csvDir    = flag.String("csv", "", "also write figure series as CSV files into this directory")
		replicas  = flag.Int("replicas", 0, "with -exp fig6: run this many dataset replicas and report mean±sd")
		ckptDir   = flag.String("checkpoint", "", "checkpoint directory: index builds save progress there and a rerun resumes them")
		deadline  = flag.Duration("deadline", 0, "wall-clock budget shared by the whole run; past it, index builds degrade to partial indexes (notice on stderr)")
		debugAddr = flag.String("debug-addr", "", "serve Prometheus /metrics, /debug/traces and pprof on this address while running (e.g. localhost:6060)")
		statsJSON = flag.String("stats-json", "", "write the machine-readable run report (metrics, spans, run info) to this file on exit")
	)
	flag.Parse()

	// Ctrl-C / SIGTERM cancel the context: the heavy index builds abort
	// between worlds (flushing progress when -checkpoint is set) and the run
	// exits 130.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()

	ctx, rt, err := cliutil.StartTelemetry(ctx, "experiments", *debugAddr, *statsJSON)
	if err != nil {
		cliutil.Fail("experiments", err)
	}
	rt.Registry.SetSeed(*seed)
	rt.Registry.SetParam("exp", *exp)
	rt.Registry.SetParam("scale", fmt.Sprint(*scale))
	rt.Registry.SetParam("samples", fmt.Sprint(*samples))
	rt.Registry.SetParam("k", fmt.Sprint(*k))

	cfg := experiments.Config{
		Scale:         *scale,
		Samples:       *samples,
		EvalSamples:   *evalSamp,
		K:             *k,
		Seed:          *seed,
		Out:           os.Stdout,
		Err:           os.Stderr,
		Ctx:           ctx,
		CheckpointDir: *ckptDir,
	}
	if *deadline > 0 {
		cfg.Budget = checkpoint.Budget{Deadline: time.Now().Add(*deadline)}
	}
	if *dsets != "" {
		cfg.Datasets = strings.Split(*dsets, ",")
	}
	if *ckptDir != "" {
		if err := os.MkdirAll(*ckptDir, 0o755); err != nil {
			rt.Finish(err)
		}
	}

	fail := func(prefix string, err error) {
		rt.Finish(fmt.Errorf("%s%w", prefix, err))
	}

	if *replicas > 0 && *exp == "fig6" {
		if _, err := experiments.Fig6Replicated(cfg, *replicas); err != nil {
			fail("fig6 replicated: ", err)
		}
		rt.Flush()
		return
	}

	ids := []string{*exp}
	switch *exp {
	case "all":
		ids = experiments.All()
	case "ext":
		ids = experiments.Extensions()
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			fail("", err)
		}
		if err := experiments.RunWithCSV(id, cfg, *csvDir); err != nil {
			fail(id+": ", err)
		}
	}
	rt.Flush()
}
