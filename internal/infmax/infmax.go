// Package infmax implements influence maximization: the standard
// Monte-Carlo greedy of Kempe et al. accelerated with CELF lazy evaluation
// (InfMaxStd, the paper's InfMax_std baseline), and the paper's contribution
// — greedy maximum coverage over the typical cascades of the singleton
// nodes (InfMaxTC, Algorithm 3).
//
// Both objectives are monotone and submodular, so lazy (CELF) greedy
// produces exactly the same seed sequence as naive greedy while skipping
// most marginal-gain evaluations (Leskovec et al., KDD 2007). The package
// also provides degree and random baselines, the saturation-analysis
// instrumentation behind the paper's Figure 7, and the weighted/budgeted
// max-cover variants sketched as future work in the paper's §8.
package infmax

import (
	"container/heap"
	"context"
	"fmt"

	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/rng"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Selection is the outcome of a seed-selection run.
type Selection struct {
	// Seeds in selection order.
	Seeds []graph.NodeID
	// Gains[i] is the marginal objective gain realized by Seeds[i], in the
	// method's own objective units (expected spread for InfMaxStd, covered
	// sphere elements for InfMaxTC).
	Gains []float64
	// LazyEvaluations counts marginal-gain computations performed; the CELF
	// ablation compares it against naive greedy's k*n.
	LazyEvaluations int
}

// Objective returns the cumulative objective value of the full selection.
func (s *Selection) Objective() float64 {
	total := 0.0
	for _, g := range s.Gains {
		total += g
	}
	return total
}

// celfItem is a priority-queue entry with a cached, possibly stale gain.
type celfItem struct {
	node  graph.NodeID
	gain  float64
	round int // the selection round the gain was computed in
}

type celfQueue []celfItem

func (q celfQueue) Len() int { return len(q) }

// Less orders by gain descending, breaking ties by node id ascending so the
// lazy greedy resolves ties exactly like the naive greedy (which scans nodes
// in id order). This keeps the two implementations result-identical, not
// just objective-equivalent in expectation.
func (q celfQueue) Less(i, j int) bool {
	if q[i].gain != q[j].gain {
		return q[i].gain > q[j].gain
	}
	return q[i].node < q[j].node
}
func (q celfQueue) Swap(i, j int)       { q[i], q[j] = q[j], q[i] }
func (q *celfQueue) Push(x interface{}) { *q = append(*q, x.(celfItem)) }
func (q *celfQueue) Pop() interface{} {
	old := *q
	it := old[len(old)-1]
	*q = old[:len(old)-1]
	return it
}

// gainFunc evaluates (or, as a commit, applies) a candidate for the greedy
// loops: it returns the candidate's marginal gain, and the first error
// aborts the selection.
type gainFunc func(graph.NodeID) (float64, error)

// celfGreedy runs lazy greedy for k rounds over candidate nodes 0..n-1.
// gain must return the current marginal gain of a node; commit must apply
// the selection and return the realized gain. For a submodular objective
// the result equals naive greedy. ctx is checked before every gain
// evaluation, and the first error (or ctx.Err()) aborts the selection. The
// zero greedyMetrics disables telemetry.
func celfGreedy(ctx context.Context, n, k int, gain, commit gainFunc, gm greedyMetrics) (Selection, error) {
	if k > n {
		k = n
	}
	sel := Selection{Seeds: make([]graph.NodeID, 0, k), Gains: make([]float64, 0, k)}
	q := make(celfQueue, 0, n)
	for v := 0; v < n; v++ {
		if err := ctx.Err(); err != nil {
			return Selection{}, err
		}
		g, err := gain(graph.NodeID(v))
		if err != nil {
			return Selection{}, err
		}
		q = append(q, celfItem{node: graph.NodeID(v), gain: g, round: 0})
		sel.LazyEvaluations++
		gm.eval()
	}
	heap.Init(&q)
	for round := 1; round <= k && len(q) > 0; {
		if err := ctx.Err(); err != nil {
			return Selection{}, err
		}
		top := heap.Pop(&q).(celfItem)
		if top.round == round {
			realized, err := commit(top.node)
			if err != nil {
				return Selection{}, err
			}
			sel.Seeds = append(sel.Seeds, top.node)
			sel.Gains = append(sel.Gains, realized)
			gm.commit(realized)
			round++
			continue
		}
		g, err := gain(top.node)
		if err != nil {
			return Selection{}, err
		}
		top.gain = g
		top.round = round
		sel.LazyEvaluations++
		gm.eval()
		heap.Push(&q, top)
	}
	return sel, nil
}

// naiveGreedy evaluates every candidate each round; used by the CELF
// ablation and the saturation trace. onRound, if non-nil, receives each
// round's descending marginal gains. Cancellation and errors behave as in
// celfGreedy.
func naiveGreedy(ctx context.Context, n, k int, gain, commit gainFunc,
	onRound func(round int, sorted []float64)) (Selection, error) {
	if k > n {
		k = n
	}
	sel := Selection{Seeds: make([]graph.NodeID, 0, k), Gains: make([]float64, 0, k)}
	chosen := make([]bool, n)
	gains := make([]float64, 0, n)
	for round := 1; round <= k; round++ {
		best := graph.NodeID(-1)
		bestGain := -1.0
		gains = gains[:0]
		for v := 0; v < n; v++ {
			if chosen[v] {
				continue
			}
			if err := ctx.Err(); err != nil {
				return Selection{}, err
			}
			g, err := gain(graph.NodeID(v))
			if err != nil {
				return Selection{}, err
			}
			sel.LazyEvaluations++
			gains = append(gains, g)
			if g > bestGain {
				bestGain = g
				best = graph.NodeID(v)
			}
		}
		if best < 0 {
			break
		}
		if onRound != nil {
			sortDescFloat(gains)
			onRound(round, gains)
		}
		realized, err := commit(best)
		if err != nil {
			return Selection{}, err
		}
		chosen[best] = true
		sel.Seeds = append(sel.Seeds, best)
		sel.Gains = append(sel.Gains, realized)
	}
	return sel, nil
}

func sortDescFloat(s []float64) {
	// Heapsort-free simple path: the slices here are at most n long and
	// this runs only in the instrumented (deliberately unoptimized) mode.
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] < v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

func validateK(k, n int) error {
	if k < 1 {
		return fmt.Errorf("infmax: k must be >= 1, got %d", k)
	}
	if n < 1 {
		return fmt.Errorf("infmax: empty graph")
	}
	return nil
}

// Degree returns the k nodes with the highest out-degree (a classical cheap
// baseline).
func Degree(g *graph.Graph, k int) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	n := g.NumNodes()
	if k > n {
		k = n
	}
	type nd struct {
		v   graph.NodeID
		deg int
	}
	nodes := make([]nd, n)
	for v := 0; v < n; v++ {
		nodes[v] = nd{graph.NodeID(v), g.OutDegree(graph.NodeID(v))}
	}
	// Partial selection sort is fine for the k used in experiments.
	sel := Selection{Seeds: make([]graph.NodeID, 0, k), Gains: make([]float64, 0, k)}
	for i := 0; i < k; i++ {
		best := i
		for j := i + 1; j < n; j++ {
			if nodes[j].deg > nodes[best].deg ||
				(nodes[j].deg == nodes[best].deg && nodes[j].v < nodes[best].v) {
				best = j
			}
		}
		nodes[i], nodes[best] = nodes[best], nodes[i]
		sel.Seeds = append(sel.Seeds, nodes[i].v)
		sel.Gains = append(sel.Gains, float64(nodes[i].deg))
	}
	return sel, nil
}

// Random returns k distinct uniformly random seeds.
func Random(g *graph.Graph, k int, seed uint64) (Selection, error) {
	if err := validateK(k, g.NumNodes()); err != nil {
		return Selection{}, err
	}
	n := g.NumNodes()
	if k > n {
		k = n
	}
	perm := rng.New(seed).Perm(n)
	sel := Selection{Seeds: make([]graph.NodeID, 0, k), Gains: make([]float64, k)}
	for _, v := range perm[:k] {
		sel.Seeds = append(sel.Seeds, graph.NodeID(v))
	}
	return sel, nil
}

// sharedIndexGain adapts an index.Coverage to the greedy callbacks,
// converting node-slot units to expected-spread units.
func sharedIndexGain(x *index.Index) (gain, commit gainFunc) {
	s := x.NewScratch()
	cov := x.NewCoverage()
	// Quarantined worlds contribute no gain, so the live count is the
	// denominator that keeps estimates unbiased over the surviving sample.
	ell := float64(x.LiveWorlds())
	gain = func(v graph.NodeID) (float64, error) {
		return float64(cov.MarginalGain(v, s)) / ell, nil
	}
	commit = func(v graph.NodeID) (float64, error) {
		return float64(cov.Add(v, s)) / ell, nil
	}
	return gain, commit
}

// Std runs the standard greedy influence maximization (InfMax_std): greedy
// on the expected spread estimated over the ℓ worlds of the shared cascade
// index, with CELF lazy evaluation. Gains are in expected-spread units. The
// registry ctx carries receives the greedy metrics and the
// "infmax.std.greedy" trace span opens under the span ctx carries; ctx is
// checked before every gain evaluation, and a canceled context aborts the
// selection with ctx.Err().
func Std(ctx context.Context, x *index.Index, k int) (Selection, error) {
	if err := validateK(k, x.Graph().NumNodes()); err != nil {
		return Selection{}, err
	}
	sp := trace.Child(ctx, "infmax.std.greedy", trace.Int("k", int64(k)))
	defer sp.End()
	gain, commit := sharedIndexGain(x)
	return celfGreedy(ctx, x.Graph().NumNodes(), k, gain, commit, newGreedyMetrics(telemetry.FromContext(ctx)))
}

// StdNaive is Std without CELF (every candidate re-evaluated each round).
// onRound, if non-nil, receives the descending marginal gains of each round
// — the instrumentation behind the saturation analysis (Figure 7).
func StdNaive(ctx context.Context, x *index.Index, k int, onRound func(round int, sortedGains []float64)) (Selection, error) {
	if err := validateK(k, x.Graph().NumNodes()); err != nil {
		return Selection{}, err
	}
	gain, commit := sharedIndexGain(x)
	return naiveGreedy(ctx, x.Graph().NumNodes(), k, gain, commit, onRound)
}
