package infmax

import (
	"context"
	"fmt"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/trace"
	"soi/internal/worlds"
)

// MCOptions configures the Monte-Carlo greedy (the paper-faithful
// InfMax_std).
type MCOptions struct {
	// Trials is the number of fresh IC simulations per marginal-gain
	// evaluation (the paper uses 1000).
	Trials int
	// Seed drives the simulations. Every evaluation draws fresh worlds —
	// that per-evaluation noise is the mechanism behind the paper's
	// saturation analysis, and the reason the typical-cascade method
	// overtakes this one at large k.
	Seed uint64
}

func (o *MCOptions) validate() error {
	if o.Trials < 1 {
		return fmt.Errorf("infmax: Trials must be >= 1, got %d", o.Trials)
	}
	return nil
}

// mcState evaluates σ̂(S ∪ {v}) with fresh simulations per call.
type mcState struct {
	ctx     context.Context
	g       *graph.Graph
	opts    MCOptions
	seeds   []graph.NodeID
	sigmaS  float64 // current σ̂(S), from the evaluation that committed the last seed
	evalCtr uint64
}

// estimate draws a fresh σ̂(S ∪ {v}); every call advances the evaluation
// counter, so no two evaluations share simulated worlds.
func (m *mcState) estimate(v graph.NodeID) (float64, error) {
	m.evalCtr++
	return cascade.ExpectedSpread(m.ctx, m.g, append(m.seeds, v), m.opts.Trials,
		rng.Mix64(m.opts.Seed^m.evalCtr), worlds.IC, 0, checkpoint.Config{})
}

func (m *mcState) gain(v graph.NodeID) (float64, error) {
	est, err := m.estimate(v)
	return est - m.sigmaS, err
}

func (m *mcState) commit(v graph.NodeID) (float64, error) {
	est, err := m.estimate(v)
	if err != nil {
		return 0, err
	}
	gain := est - m.sigmaS
	m.sigmaS = est
	m.seeds = append(m.seeds, v)
	return gain, nil
}

// StdMC is the paper's InfMax_std: greedy influence maximization where each
// marginal gain σ(S∪{w}) − σ(S) is estimated by fresh Monte-Carlo
// simulation, accelerated with CELF. Unlike Std (which optimizes coverage of
// a fixed world sample exactly), StdMC re-samples at every evaluation; when
// true marginal gains shrink below the Monte-Carlo standard error the
// greedy's choices become effectively random among the top candidates — the
// saturation the paper's Figure 7 measures. ctx is checked before every
// marginal-gain evaluation and inside the Monte-Carlo simulation workers,
// so a canceled context aborts the greedy promptly with ctx.Err(). The
// registry ctx carries receives the greedy and cascade metrics
// (infmax.gain_evals, cascade.trials, ...), and the "infmax.stdmc.greedy"
// span, parent of every evaluation's "cascade.expected_spread", opens under
// the span ctx carries.
func StdMC(ctx context.Context, g *graph.Graph, k int, opts MCOptions) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	if err := opts.validate(); err != nil {
		return Selection{}, err
	}
	ctx, sp := trace.StartChild(ctx, "infmax.stdmc.greedy")
	defer sp.End()
	m := &mcState{ctx: ctx, g: g, opts: opts}
	return celfGreedy(ctx, g.NumNodes(), k, m.gain, m.commit, newGreedyMetrics(telemetry.FromContext(ctx)))
}

// StdMCNaive is StdMC without CELF: every candidate is re-evaluated each
// round ("the standard greedy algorithm with no optimization at all" of the
// paper's saturation analysis). onRound receives each round's descending
// marginal gains. Cancellation behaves as in StdMC.
func StdMCNaive(ctx context.Context, g *graph.Graph, k int, opts MCOptions, onRound func(round int, sortedGains []float64)) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	if err := opts.validate(); err != nil {
		return Selection{}, err
	}
	m := &mcState{ctx: ctx, g: g, opts: opts}
	return naiveGreedy(ctx, g.NumNodes(), k, m.gain, m.commit, onRound)
}

// SaturationStdMC records MG_rank/MG_1 per round for the Monte-Carlo greedy.
func SaturationStdMC(ctx context.Context, g *graph.Graph, k, rank int, opts MCOptions) ([]SaturationPoint, Selection, error) {
	return saturation(rank, func(onRound func(int, []float64)) (Selection, error) {
		return StdMCNaive(ctx, g, k, opts, onRound)
	})
}
