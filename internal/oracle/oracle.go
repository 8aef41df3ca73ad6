// Package oracle computes exact answers to every quantity this library
// otherwise estimates by sampling: the cascade distribution of a source set,
// the expected Jaccard cost ρ_s(C) of a candidate sphere, the optimal
// typical cascade C*, the expected spread σ(S) of a seed set, and
// s–t / from-source reliability.
//
// All of these are #P-hard in general (paper Theorem 1; Valiant 1979 for
// reliability), so the oracle brute-forces the possible-world semantics: a
// probabilistic graph with m independent edges defines 2^m worlds, and every
// query is an expectation over that finite distribution. That is only
// feasible on tiny graphs, which is exactly the point — the oracle exists so
// the test suite can hold every sampling estimator to the exact answer
// within a principled statistical tolerance (internal/statcheck), instead of
// merely checking that estimators run.
//
// Enumeration is pruned two ways before the 2^m loop:
//
//   - probability-0/1 short-circuiting: an edge with p = 1 is live in every
//     world and an edge with p = 0 (unrepresentable via graph.Build, but
//     handled defensively) is live in none, so neither consumes an
//     enumeration bit;
//   - reachability pruning (CascadeDistribution only): an edge whose tail is
//     unreachable from the source set even with every edge live can never
//     fire, so its two states marginalize out of the cascade distribution.
//
// The oracle implements the Independent Cascade model — the model of the
// paper's analysis — and, through LTCascadeDistribution, the Linear
// Threshold model, whose worlds are each node's choice of at most one live
// in-edge.
package oracle

import (
	"fmt"
	"math/bits"
	"sort"

	"soi/internal/graph"
)

const (
	// MaxNodes bounds graph size so cascades fit in a uint64 bitmask.
	MaxNodes = 64
	// MaxUncertainEdges bounds the edges with p in (0,1) that survive
	// pruning; 2^22 ≈ 4.2M worlds keeps full enumeration under a second.
	MaxUncertainEdges = 22
	// MaxUniverse bounds the exhaustive candidate search of
	// OptimalTypicalCascade (2^20 candidate sets).
	MaxUniverse = 20
)

// Outcome is one point of a cascade distribution: a cascade (as a node
// bitmask) and its exact probability.
type Outcome struct {
	// Mask has bit v set iff node v is in the cascade.
	Mask uint64
	// Prob is the total probability of the worlds producing this cascade.
	Prob float64
}

// Distribution is the exact cascade distribution of a source set: the
// finitely many distinct cascades and their probabilities, summing to 1.
type Distribution struct {
	n        int
	seeds    []graph.NodeID
	outcomes []Outcome // sorted by Mask ascending
}

// relevantEdge is one edge that survived pruning. bit < 0 marks a certain
// (p = 1) edge that is live in every world.
type relevantEdge struct {
	from, to graph.NodeID
	prob     float64
	bit      int
}

// worldEnum is the pruned possible-world enumeration shared by
// CascadeDistribution and SpreadOracle.
type worldEnum struct {
	n         int
	adjOff    []int32 // CSR offsets into edges, by from-node
	edges     []relevantEdge
	uncertain []relevantEdge // edges with an enumeration bit, by bit index
}

// newWorldEnum classifies edges and builds the pruned enumeration.
// keep filters edges (reachability pruning); nil keeps all.
func newWorldEnum(g *graph.Graph, keep func(graph.Edge) bool) (*worldEnum, error) {
	n := g.NumNodes()
	if n > MaxNodes {
		return nil, fmt.Errorf("oracle: graph has %d nodes, exact enumeration supports at most %d", n, MaxNodes)
	}
	var kept []relevantEdge
	var uncertain []relevantEdge
	for _, e := range g.Edges() {
		if e.Prob <= 0 || (keep != nil && !keep(e)) {
			continue // never live, or cannot influence the query
		}
		re := relevantEdge{from: e.From, to: e.To, prob: e.Prob, bit: -1}
		if e.Prob < 1 {
			re.bit = len(uncertain)
			uncertain = append(uncertain, re)
		}
		kept = append(kept, re)
	}
	if len(uncertain) > MaxUncertainEdges {
		return nil, fmt.Errorf("oracle: %d uncertain edges after pruning, exact enumeration supports at most %d",
			len(uncertain), MaxUncertainEdges)
	}
	// CSR by from-node so per-world traversal is a cache-friendly scan.
	sort.SliceStable(kept, func(i, j int) bool { return kept[i].from < kept[j].from })
	off := make([]int32, n+1)
	for _, e := range kept {
		off[e.from+1]++
	}
	for u := 1; u <= n; u++ {
		off[u] += off[u-1]
	}
	return &worldEnum{n: n, adjOff: off, edges: kept, uncertain: uncertain}, nil
}

// numWorlds returns the number of worlds the pruned enumeration visits.
func (we *worldEnum) numWorlds() int { return 1 << uint(len(we.uncertain)) }

// worldProb returns the probability of the world selected by mask
// (bit i set = uncertain edge i live).
func (we *worldEnum) worldProb(mask uint64) float64 {
	p := 1.0
	for i, e := range we.uncertain {
		if mask&(1<<uint(i)) != 0 {
			p *= e.prob
		} else {
			p *= 1 - e.prob
		}
	}
	return p
}

// reach returns the bitmask of nodes reachable from the seed mask in the
// world selected by worldMask, using stack as scratch (len 0, cap >= n).
func (we *worldEnum) reach(seedMask, worldMask uint64, stack []graph.NodeID) uint64 {
	visited := seedMask
	for v := 0; v < we.n; v++ {
		if seedMask&(1<<uint(v)) != 0 {
			stack = append(stack, graph.NodeID(v))
		}
	}
	for len(stack) > 0 {
		u := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for i := we.adjOff[u]; i < we.adjOff[u+1]; i++ {
			e := we.edges[i]
			if e.bit >= 0 && worldMask&(1<<uint(e.bit)) == 0 {
				continue // uncertain edge not live in this world
			}
			if visited&(1<<uint(e.to)) == 0 {
				visited |= 1 << uint(e.to)
				stack = append(stack, e.to)
			}
		}
	}
	return visited
}

func validateSeeds(g *graph.Graph, seeds []graph.NodeID) error {
	if len(seeds) == 0 {
		return fmt.Errorf("oracle: empty source set")
	}
	for _, s := range seeds {
		if s < 0 || int(s) >= g.NumNodes() {
			return fmt.Errorf("oracle: node %d out of range [0,%d)", s, g.NumNodes())
		}
	}
	return nil
}

// CascadeDistribution enumerates every possible world of g and returns the
// exact distribution of the cascade (reachable set) of the seed set.
func CascadeDistribution(g *graph.Graph, seeds []graph.NodeID) (*Distribution, error) {
	if err := validateSeeds(g, seeds); err != nil {
		return nil, err
	}
	// Reachability pruning: only edges whose tail can possibly be activated
	// (reachable from the seeds with every edge live) can affect the cascade.
	inReach := make([]bool, g.NumNodes())
	for _, v := range g.ReachableFromSet(seeds) {
		inReach[v] = true
	}
	we, err := newWorldEnum(g, func(e graph.Edge) bool { return inReach[e.From] })
	if err != nil {
		return nil, err
	}
	var seedMask uint64
	for _, s := range seeds {
		seedMask |= 1 << uint(s)
	}
	dist := make(map[uint64]float64)
	stack := make([]graph.NodeID, 0, we.n)
	for w := uint64(0); w < uint64(we.numWorlds()); w++ {
		dist[we.reach(seedMask, w, stack)] += we.worldProb(w)
	}
	return newDistribution(g.NumNodes(), seeds, dist), nil
}

func newDistribution(n int, seeds []graph.NodeID, dist map[uint64]float64) *Distribution {
	outcomes := make([]Outcome, 0, len(dist))
	for mask, p := range dist {
		outcomes = append(outcomes, Outcome{Mask: mask, Prob: p})
	}
	sort.Slice(outcomes, func(i, j int) bool { return outcomes[i].Mask < outcomes[j].Mask })
	return &Distribution{
		n:        n,
		seeds:    append([]graph.NodeID(nil), seeds...),
		outcomes: outcomes,
	}
}

// ltOption is one in-edge choice of a node under LT: keep the edge from
// `from`, or no in-edge at all when from < 0.
type ltOption struct {
	from graph.NodeID
	prob float64
}

// LTCascadeDistribution is CascadeDistribution under the Linear Threshold
// model, in Kempe et al.'s live-edge form: every node keeps at most one
// in-edge, each with probability equal to its weight, and none with the
// residual probability. It enumerates every combination of those per-node
// choices, Π(indeg + 1) worlds at most. Only the choices of non-seed nodes
// the seeds can reach matter, and the world count must stay within
// 2^MaxUncertainEdges. Incoming weights must sum to at most 1 per node.
func LTCascadeDistribution(g *graph.Graph, seeds []graph.NodeID) (*Distribution, error) {
	if err := validateSeeds(g, seeds); err != nil {
		return nil, err
	}
	n := g.NumNodes()
	if n > MaxNodes {
		return nil, fmt.Errorf("oracle: graph has %d nodes, exact enumeration supports at most %d", n, MaxNodes)
	}
	seedMask := MaskOf(seeds)
	rev := g.Reverse()
	var nodes []graph.NodeID
	var options [][]ltOption
	worlds := 1
	for _, v := range g.ReachableFromSet(seeds) {
		if seedMask&(1<<uint(v)) != 0 {
			continue
		}
		var opts []ltOption
		total := 0.0
		lo, hi := rev.EdgeRange(v)
		for i := lo; i < hi; i++ {
			p := rev.EdgeProb(i)
			total += p
			opts = append(opts, ltOption{from: rev.EdgeTo(i), prob: p})
		}
		if total > 1+1e-9 {
			return nil, fmt.Errorf("oracle: node %d has incoming LT weight %v > 1", v, total)
		}
		if rest := 1 - total; rest > 1e-12 {
			opts = append(opts, ltOption{from: -1, prob: rest})
		}
		worlds *= len(opts)
		if worlds > 1<<MaxUncertainEdges {
			return nil, fmt.Errorf("oracle: more than 2^%d LT worlds after pruning", MaxUncertainEdges)
		}
		nodes = append(nodes, v)
		options = append(options, opts)
	}
	choice := make([]graph.NodeID, n)
	digit := make([]int, len(nodes))
	stack := make([]graph.NodeID, 0, n)
	dist := make(map[uint64]float64)
	for {
		p := 1.0
		for j, v := range nodes {
			o := options[j][digit[j]]
			choice[v] = o.from
			p *= o.prob
		}
		// Edge (u,v) is live iff v chose u; seeds are active whatever they
		// chose, and nodes outside the reach are never examined.
		visited := seedMask
		stack = append(stack[:0], seeds...)
		for len(stack) > 0 {
			u := stack[len(stack)-1]
			stack = stack[:len(stack)-1]
			succ, _ := g.Neighbors(u)
			for _, v := range succ {
				if visited&(1<<uint(v)) == 0 && choice[v] == u {
					visited |= 1 << uint(v)
					stack = append(stack, v)
				}
			}
		}
		dist[visited] += p
		// Advance the mixed-radix counter over the choices.
		j := 0
		for ; j < len(nodes); j++ {
			if digit[j]++; digit[j] < len(options[j]) {
				break
			}
			digit[j] = 0
		}
		if j == len(nodes) {
			break
		}
	}
	return newDistribution(n, seeds, dist), nil
}

// NumNodes returns the node count of the underlying graph.
func (d *Distribution) NumNodes() int { return d.n }

// Seeds returns a copy of the source set.
func (d *Distribution) Seeds() []graph.NodeID {
	return append([]graph.NodeID(nil), d.seeds...)
}

// Support returns a copy of the distinct cascades with their probabilities,
// sorted by mask.
func (d *Distribution) Support() []Outcome {
	return append([]Outcome(nil), d.outcomes...)
}

// TotalProb returns the probability mass of the distribution; it must be 1
// up to floating-point rounding, and tests assert exactly that.
func (d *Distribution) TotalProb() float64 {
	t := 0.0
	for _, o := range d.outcomes {
		t += o.Prob
	}
	return t
}

// Prob returns the exact probability that the cascade equals exactly the
// given node set.
func (d *Distribution) Prob(set []graph.NodeID) float64 {
	mask := MaskOf(set)
	for _, o := range d.outcomes {
		if o.Mask == mask {
			return o.Prob
		}
	}
	return 0
}

// MaskOf converts a node set to its bitmask. Nodes must be < MaxNodes.
func MaskOf(set []graph.NodeID) uint64 {
	var m uint64
	for _, v := range set {
		m |= 1 << uint(v)
	}
	return m
}

// SetOf converts a bitmask back to a sorted node set.
func SetOf(mask uint64) []graph.NodeID {
	out := make([]graph.NodeID, 0, bits.OnesCount64(mask))
	for mask != 0 {
		v := bits.TrailingZeros64(mask)
		out = append(out, graph.NodeID(v))
		mask &^= 1 << uint(v)
	}
	return out
}

// maskDistance is the Jaccard distance between two node bitmasks; the
// distance of two empty masks is 0 (matching jaccard.Distance).
func maskDistance(a, b uint64) float64 {
	union := bits.OnesCount64(a | b)
	if union == 0 {
		return 0
	}
	return 1 - float64(bits.OnesCount64(a&b))/float64(union)
}

// Rho returns the exact expected Jaccard distance ρ_seeds(cand) between the
// candidate set and a random cascade — the paper's objective, and the
// stability of cand when it is a typical cascade.
func (d *Distribution) Rho(cand []graph.NodeID) float64 {
	cm := MaskOf(cand)
	total := 0.0
	for _, o := range d.outcomes {
		total += o.Prob * maskDistance(cm, o.Mask)
	}
	return total
}

// OptimalTypicalCascade exhaustively searches all subsets of the union of
// possible cascades and returns an exact optimal typical cascade C* with
// its cost ρ(C*). Any node outside every possible cascade only dilutes the
// Jaccard intersection, so the optimum always lies within that union and
// the restriction loses nothing. Ties break toward the smaller set, then
// the lexicographically smaller mask, making the result deterministic.
func (d *Distribution) OptimalTypicalCascade() ([]graph.NodeID, float64, error) {
	var universe uint64
	for _, o := range d.outcomes {
		universe |= o.Mask
	}
	m := bits.OnesCount64(universe)
	if m > MaxUniverse {
		return nil, 0, fmt.Errorf("oracle: cascade union has %d nodes, exhaustive search supports at most %d", m, MaxUniverse)
	}
	bestMask, bestCost := uint64(0), d.Rho(nil)
	// Enumerate the subsets of universe in increasing submask order.
	for sub := universe; sub != 0; sub = (sub - 1) & universe {
		cost := 0.0
		for _, o := range d.outcomes {
			cost += o.Prob * maskDistance(sub, o.Mask)
		}
		if cost < bestCost ||
			(cost == bestCost && (bits.OnesCount64(sub) < bits.OnesCount64(bestMask) ||
				(bits.OnesCount64(sub) == bits.OnesCount64(bestMask) && sub < bestMask))) {
			bestCost, bestMask = cost, sub
		}
	}
	return SetOf(bestMask), bestCost, nil
}

// ExpectedSpread returns the exact expected cascade size σ(seeds).
func (d *Distribution) ExpectedSpread() float64 {
	total := 0.0
	for _, o := range d.outcomes {
		total += o.Prob * float64(bits.OnesCount64(o.Mask))
	}
	return total
}

// ReachProbabilities returns, for every node v, the exact probability that
// v is in the cascade — the from-source reliability vector.
func (d *Distribution) ReachProbabilities() []float64 {
	probs := make([]float64, d.n)
	for _, o := range d.outcomes {
		mask := o.Mask
		for mask != 0 {
			v := bits.TrailingZeros64(mask)
			probs[v] += o.Prob
			mask &^= 1 << uint(v)
		}
	}
	return probs
}

// ReachProbability returns the exact probability that t is reachable from
// the seeds — s–t reliability when the distribution was built from {s}.
func (d *Distribution) ReachProbability(t graph.NodeID) (float64, error) {
	if t < 0 || int(t) >= d.n {
		return 0, fmt.Errorf("oracle: node %d out of range [0,%d)", t, d.n)
	}
	return d.ReachProbabilities()[t], nil
}

// ReliabilitySearch returns the nodes reachable from the seeds with exact
// probability >= threshold, sorted by id.
func (d *Distribution) ReliabilitySearch(threshold float64) []graph.NodeID {
	var out []graph.NodeID
	for v, p := range d.ReachProbabilities() {
		if p >= threshold {
			out = append(out, graph.NodeID(v))
		}
	}
	return out
}

// Rho is the package-level convenience for Distribution.Rho.
func Rho(g *graph.Graph, seeds, cand []graph.NodeID) (float64, error) {
	d, err := CascadeDistribution(g, seeds)
	if err != nil {
		return 0, err
	}
	return d.Rho(cand), nil
}

// OptimalTypicalCascade is the package-level convenience returning C* and
// ρ(C*) for a source set.
func OptimalTypicalCascade(g *graph.Graph, seeds []graph.NodeID) ([]graph.NodeID, float64, error) {
	d, err := CascadeDistribution(g, seeds)
	if err != nil {
		return nil, 0, err
	}
	return d.OptimalTypicalCascade()
}

// ExpectedSpread is the package-level convenience returning exact σ(seeds).
func ExpectedSpread(g *graph.Graph, seeds []graph.NodeID) (float64, error) {
	d, err := CascadeDistribution(g, seeds)
	if err != nil {
		return 0, err
	}
	return d.ExpectedSpread(), nil
}

// ReliabilityST returns the exact probability that t is reachable from s.
func ReliabilityST(g *graph.Graph, s, t graph.NodeID) (float64, error) {
	d, err := CascadeDistribution(g, []graph.NodeID{s})
	if err != nil {
		return 0, err
	}
	return d.ReachProbability(t)
}

// ReachProbabilities returns the exact from-source reliability vector.
func ReachProbabilities(g *graph.Graph, sources []graph.NodeID) ([]float64, error) {
	d, err := CascadeDistribution(g, sources)
	if err != nil {
		return nil, err
	}
	return d.ReachProbabilities(), nil
}

// ReliabilitySearch returns the nodes reachable from sources with exact
// probability >= threshold.
func ReliabilitySearch(g *graph.Graph, sources []graph.NodeID, threshold float64) ([]graph.NodeID, error) {
	d, err := CascadeDistribution(g, sources)
	if err != nil {
		return nil, err
	}
	return d.ReliabilitySearch(threshold), nil
}
