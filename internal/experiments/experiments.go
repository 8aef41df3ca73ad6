// Package experiments regenerates every table and figure of the paper's
// evaluation (§6) on the synthetic dataset analogs. Each experiment returns
// structured results and can render them as fixed-width text tables; the
// cmd/experiments binary and the repository's benchmark suite are thin
// wrappers around this package.
//
// The mapping from paper artifact to function:
//
//	Table 1  -> Table1   dataset characteristics
//	Figure 3 -> Fig3     CDFs of edge probabilities per assignment method
//	Table 2  -> Table2   typical-cascade size statistics, 12 configurations
//	Figure 4 -> Fig4     per-node time to compute C̃* and its expected cost
//	Figure 5 -> Fig5     expected cost vs typical-cascade size
//	Figure 6 -> Fig6     σ(S) of InfMax_std vs InfMax_TC as |S| grows
//	Figure 7 -> Fig7     marginal-gain-ratio saturation analysis
//	Figure 8 -> Fig8     stability of the selected seed sets
package experiments

import (
	"context"
	"errors"
	"fmt"
	"io"
	"path/filepath"

	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/datasets"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
)

// Config controls experiment scale. The zero value selects a fast
// laptop-scale run; the paper's parameters are Samples=1000, K=200 at
// Scale=20 (full dataset sizes).
type Config struct {
	// Scale multiplies dataset node counts (1.0 = paper sizes / ~20).
	Scale float64
	// Samples is ℓ, the number of indexed possible worlds per dataset.
	Samples int
	// EvalSamples is the number of held-out worlds used to score seed sets
	// and estimate expected costs; 0 selects Samples.
	EvalSamples int
	// K is the maximum seed-set size for the influence-maximization
	// experiments.
	K int
	// Seed drives all sampling.
	Seed uint64
	// Datasets restricts the run to the named configurations; nil selects
	// all twelve.
	Datasets []string
	// Out receives the rendered tables; nil discards them.
	Out io.Writer
	// Ctx, if non-nil, cancels the heavy compute phases (index builds,
	// sphere sweeps and every seed selection, the Figure 7 saturation
	// greedies included): cmd/experiments passes the signal-bound context
	// so Ctrl-C aborts a run promptly instead of finishing the experiment.
	// The phases open their trace spans under the span Ctx carries and meter
	// into the registry it carries (telemetry.NewContext).
	Ctx context.Context
	// CheckpointDir, if non-empty, makes the heavy index builds crash-safe:
	// each build periodically saves its progress to a fingerprint-keyed file
	// (idx-%016x.ckpt) in this directory, and a rerun with the same
	// configuration resumes instead of resampling completed worlds.
	CheckpointDir string
	// Budget bounds each index build's wall clock; past the deadline a build
	// returns a partial index with fewer worlds (noted on Err) and the
	// experiment continues on it.
	Budget checkpoint.Budget
	// Err receives resume and partial-result notices (they never go to Out,
	// which carries the tables); nil discards them.
	Err io.Writer
}

func (c *Config) defaults() {
	if c.Scale == 0 {
		c.Scale = 0.25
	}
	if c.Samples == 0 {
		c.Samples = 200
	}
	if c.EvalSamples == 0 {
		c.EvalSamples = c.Samples
	}
	if c.K == 0 {
		c.K = 50
	}
	if len(c.Datasets) == 0 {
		c.Datasets = datasets.Names()
	}
	if c.Out == nil {
		c.Out = io.Discard
	}
	if c.Err == nil {
		c.Err = io.Discard
	}
}

func (c *Config) printf(format string, args ...interface{}) {
	fmt.Fprintf(c.Out, format, args...)
}

// loadDataset materializes one configuration at the configured scale.
func (c *Config) loadDataset(name string) (*datasets.Dataset, error) {
	return datasets.Load(name, datasets.Config{Scale: c.Scale, Seed: c.Seed})
}

// ctx returns the run's cancellation context (Background when unset).
func (c *Config) ctx() context.Context {
	if c.Ctx == nil {
		return context.Background()
	}
	return c.Ctx
}

// buildIndex builds the method index for a dataset.
func (c *Config) buildIndex(g *graph.Graph) (*index.Index, error) {
	return c.buildResumable(g, index.Options{Samples: c.Samples, Seed: c.Seed ^ methodWorldTag})
}

// buildEvalIndex builds the held-out evaluation index (independent worlds).
func (c *Config) buildEvalIndex(g *graph.Graph) (*index.Index, error) {
	return c.buildResumable(g, index.Options{
		Samples: c.EvalSamples,
		Seed:    c.Seed ^ evalWorldTag,
	})
}

// errw returns the notice sink (Discard before defaults() has run).
func (c *Config) errw() io.Writer {
	if c.Err == nil {
		return io.Discard
	}
	return c.Err
}

// buildResumable is the checkpoint/budget-aware index build behind every
// experiment. With no CheckpointDir and a zero Budget it is the plain build.
// Checkpoint files are keyed by the build fingerprint, so the many distinct
// (dataset, world-tag, ℓ) builds of one experiment run never collide and a
// changed configuration starts fresh instead of resuming stale state.
func (c *Config) buildResumable(g *graph.Graph, opts index.Options) (*index.Index, error) {
	cfg := checkpoint.Config{Budget: c.Budget}
	if c.CheckpointDir != "" {
		cfg.Path = filepath.Join(c.CheckpointDir, fmt.Sprintf("idx-%016x.ckpt", index.BuildFingerprint(g, opts)))
		cfg.OnResume = func(done, total int) {
			fmt.Fprintf(c.errw(), "experiments: resumed index build from %s: %d/%d worlds already sampled\n", cfg.Path, done, total)
		}
	}
	x, err := index.Build(c.ctx(), g, opts, cfg)
	var pe *checkpoint.PartialError
	if errors.As(err, &pe) {
		fmt.Fprintf(c.errw(), "experiments: partial index: deadline reached after %d/%d worlds (±%.4f error bound); continuing degraded\n",
			pe.Achieved, pe.Requested, pe.Bound)
		return x, nil
	}
	return x, err
}

// The two seed-space tags keep method and evaluation worlds disjoint.
const (
	methodWorldTag = 0x1D1D_1D1D
	evalWorldTag   = 0xE7A1_C0DE
)

// mcOptions configures the paper-faithful Monte-Carlo greedy: the same
// number of samples as the index, fresh at every marginal-gain evaluation.
func (c *Config) mcOptions() infmax.MCOptions {
	return infmax.MCOptions{Trials: c.Samples, Seed: c.Seed ^ 0x57D0_57D0}
}

// stdMC runs the paper's InfMax_std (Monte-Carlo CELF greedy).
func (c *Config) stdMC(g *graph.Graph) (infmax.Selection, error) {
	return infmax.StdMC(c.ctx(), g, c.K, c.mcOptions())
}

// Runner dispatches an experiment by its paper identifier.
func Run(name string, cfg Config) error {
	switch name {
	case "table1":
		_, err := Table1(cfg)
		return err
	case "fig3":
		_, err := Fig3(cfg)
		return err
	case "table2":
		_, err := Table2(cfg)
		return err
	case "fig4":
		_, err := Fig4(cfg)
		return err
	case "fig5":
		_, err := Fig5(cfg)
		return err
	case "fig6":
		_, err := Fig6(cfg)
		return err
	case "fig7":
		_, err := Fig7(cfg)
		return err
	case "fig7-shared":
		_, err := Fig7Shared(cfg)
		return err
	case "fig8":
		_, err := Fig8(cfg)
		return err
	case "ext-lt":
		_, err := ExtLT(cfg)
		return err
	case "ext-methods":
		_, err := ExtMethods(cfg)
		return err
	case "ext-modes":
		_, err := ExtModes(cfg)
		return err
	default:
		return fmt.Errorf("experiments: unknown experiment %q", name)
	}
}

// All lists the experiment identifiers in paper order.
func All() []string {
	return []string{"table1", "fig3", "table2", "fig4", "fig5", "fig6", "fig7", "fig8"}
}

// Extensions lists the beyond-the-paper experiment identifiers.
func Extensions() []string {
	return []string{"ext-lt", "ext-methods", "ext-modes"}
}

// spheresAndResults computes all typical cascades for a dataset and adapts
// them for the max-cover method.
func (c *Config) spheresAndResults(x *index.Index, costSamples int, seed uint64) ([]core.Result, infmax.Spheres, error) {
	results, err := core.ComputeAll(c.ctx(), x, core.Options{CostSamples: costSamples, CostSeed: seed}, checkpoint.Config{})
	if err != nil {
		return nil, nil, err
	}
	spheres := make(infmax.Spheres, len(results))
	for v := range results {
		spheres[v] = results[v].Set
	}
	return results, spheres, nil
}
