// Package reliability implements classical reliability queries over
// probabilistic graphs: s–t reliability (the probability that t is reachable
// from s in a random possible world — #P-hard exactly, Valiant 1979) and
// reliability search (all nodes reachable from a source set with probability
// at least a threshold, Khan et al., EDBT 2014).
//
// These are the related queries of the paper's §7 and the machinery behind
// the Theorem-1 reduction, which this library exercises numerically in its
// test suite.
package reliability

import (
	"context"
	"errors"
	"fmt"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// ST estimates rel(g, s, t): the probability that t is reachable from s
// under model. It samples `samples` lazy cascades from s; ctx is checked
// between them.
func ST(ctx context.Context, g *graph.Graph, s, t graph.NodeID, samples int, seed uint64, model worlds.Model) (float64, error) {
	if t < 0 || int(t) >= g.NumNodes() {
		return 0, outOfRange(t)
	}
	probs, _, err := FromSource(ctx, g, []graph.NodeID{s}, samples, seed, model, checkpoint.Budget{})
	if err != nil {
		return 0, err
	}
	return probs[t], nil
}

// FromSource estimates, for every node v, the probability that v is
// reachable from the source set under model, and returns how many cascade samples the
// estimate rests on. The result is indexed by node id. ctx is checked
// between cascade samples, so a canceled context returns ctx.Err()
// promptly.
//
// budget bounds the run by wall-clock deadline; its zero value is the plain
// run. Sampling stops when the deadline is too near to fit another cascade,
// and the probabilities are normalized by the achieved sample count. When
// the deadline truncates sampling but the budget's minimum is met, the
// probabilities are usable and err is a *checkpoint.PartialError (matching
// checkpoint.ErrPartial); below the minimum the error is hard.
func FromSource(ctx context.Context, g *graph.Graph, sources []graph.NodeID, samples int, seed uint64, model worlds.Model, budget checkpoint.Budget) ([]float64, int, error) {
	if err := validateFromSource(g, sources, samples); err != nil {
		return nil, 0, err
	}
	// A Runner without a checkpoint path is just the budget gate.
	r, _, err := checkpoint.Start(ctx, checkpoint.Config{Budget: budget}, nil, samples, nil)
	if err != nil {
		return nil, 0, err
	}
	counts := make([]int, g.NumNodes())
	smp := worlds.NewSampler(g, model)
	master := rng.New(seed)
	var buf []graph.NodeID
	achieved := 0
	var runErr error
	for ; achieved < samples; achieved++ {
		if runErr = ctx.Err(); runErr != nil {
			break
		}
		if runErr = r.Gate(); runErr != nil {
			break
		}
		buf, _ = smp.Forward(sources, master.Split(uint64(achieved)), buf[:0], nil, nil)
		for _, v := range buf {
			counts[v]++
		}
		r.MarkDone(achieved)
	}
	outcome := r.Settle(runErr)
	if outcome != nil && !errors.Is(outcome, checkpoint.ErrPartial) {
		return nil, achieved, outcome
	}
	probs := make([]float64, g.NumNodes())
	for v := range probs {
		probs[v] = float64(counts[v]) / float64(achieved)
	}
	return probs, achieved, outcome
}

// Search returns the nodes reachable from the source set under model with
// estimated probability >= threshold, sorted by id (the reliability-search query),
// and the achieved sample count. ctx and budget act as in FromSource; the
// node set is computed from the achieved samples even when err matches
// checkpoint.ErrPartial.
func Search(ctx context.Context, g *graph.Graph, sources []graph.NodeID, threshold float64, samples int, seed uint64, model worlds.Model, budget checkpoint.Budget) ([]graph.NodeID, int, error) {
	if err := validateThreshold(threshold); err != nil {
		return nil, 0, err
	}
	probs, achieved, err := FromSource(ctx, g, sources, samples, seed, model, budget)
	if probs == nil {
		return nil, achieved, err
	}
	var out []graph.NodeID
	for v, p := range probs {
		if p >= threshold {
			out = append(out, graph.NodeID(v))
		}
	}
	return out, achieved, err
}

func validateFromSource(g *graph.Graph, sources []graph.NodeID, samples int) error {
	if samples < 1 {
		return fmt.Errorf("reliability: samples must be >= 1, got %d", samples)
	}
	if len(sources) == 0 {
		return fmt.Errorf("reliability: empty source set")
	}
	for _, s := range sources {
		if s < 0 || int(s) >= g.NumNodes() {
			return outOfRange(s)
		}
	}
	return nil
}

func validateThreshold(threshold float64) error {
	if !(threshold > 0 && threshold <= 1) { // also rejects NaN
		return fmt.Errorf("reliability: threshold %v outside (0,1]", threshold)
	}
	return nil
}

func outOfRange(v graph.NodeID) error {
	return fmt.Errorf("reliability: node %d out of range", v)
}

// AugmentForReduction builds the graph G' of the paper's Theorem-1 proof:
// a copy of g with an additional arc of probability 1 from t to every other
// node. Computing the expected costs ρ_{G',s}(V) and ρ_{G',s}(V \ {t})
// recovers rel(g, s, t); see RelFromCosts.
func AugmentForReduction(g *graph.Graph, t graph.NodeID) (*graph.Graph, error) {
	if t < 0 || int(t) >= g.NumNodes() {
		return nil, fmt.Errorf("reliability: t=%d out of range", t)
	}
	b := graph.NewBuilder(g.NumNodes())
	for _, e := range g.Edges() {
		b.AddEdge(e.From, e.To, e.Prob)
	}
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		if v != t {
			b.AddEdge(t, v, 1)
		}
	}
	return b.Build()
}

// RelFromCosts inverts the Theorem-1 identity: given n = |V| and the
// expected costs ρ(H1), ρ(H2) for H1 = V and H2 = V \ {t} measured on the
// augmented graph, it returns rel(g, s, t):
//
//	rel = (1 - n·ρ(H1) + (n-1)·ρ(H2)) / (2 - 1/n)
//
// Note: the paper's printed formula carries an extra -1/n in the numerator;
// re-deriving from its own intermediate identity
// n·ρ(H1) - (n-1)·ρ(H2) = q·(2 - 1/n) - 1 + 1/n (with q the unreliability)
// gives the expression above, which the numerical cross-check in this
// package's tests confirms.
func RelFromCosts(n int, rhoH1, rhoH2 float64) float64 {
	fn := float64(n)
	return (1 - fn*rhoH1 + (fn-1)*rhoH2) / (2 - 1/fn)
}
