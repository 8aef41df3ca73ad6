// Package worlds implements possible-world semantics for probabilistic
// graphs: a possible world keeps each edge independently with its
// probability (Eq. 1 of the paper).
//
// Two sampling styles are provided, each under the Independent Cascade
// (IC) and the Linear Threshold (LT) model:
//
//   - World: a materialized live-edge sample of the whole graph, stored as a
//     bitset over edge indices. Worlds feed the cascade index and any
//     computation that asks many reachability queries of the same sample.
//   - Sampler: one cascade from a seed set (Forward) or one reverse-reachable
//     set of a target (Reverse) without materializing the world, drawing
//     edges lazily during the traversal. Each draw is made at most once per
//     traversal, so the lazy draws yield exactly the same distribution over
//     reachable sets as materializing first.
package worlds

import (
	"fmt"
	"math/bits"
	"slices"

	"soi/internal/graph"
	"soi/internal/rng"
)

// Model selects the propagation model whose live-edge distribution a
// sampler draws.
type Model int

const (
	// IC is the Independent Cascade model: every edge survives
	// independently with its probability.
	IC Model = iota
	// LT is the Linear Threshold model: every node keeps at most one
	// incoming edge, chosen with probability equal to its weight (the
	// Kempe et al. live-edge equivalence). Edge weights must satisfy the
	// per-node budget Σ_in <= 1; ValidateModel checks it.
	LT
)

// String returns "IC" or "LT", and "" for a value that names no model.
func (m Model) String() string { return map[Model]string{IC: "IC", LT: "LT"}[m] }

// ValidateModel checks that m names a model and that g's weights are valid
// for it: under LT, no node's incoming weights may sum above 1.
func ValidateModel(g *graph.Graph, m Model) error {
	if m == IC {
		return nil
	}
	if m != LT {
		return fmt.Errorf("worlds: unknown Model %d", m)
	}
	in := make([]float64, g.NumNodes())
	for _, e := range g.Edges() {
		in[e.To] += e.Prob
	}
	for v, total := range in {
		if total > 1+1e-9 {
			return fmt.Errorf("worlds: node %d has incoming LT weight %v > 1", v, total)
		}
	}
	return nil
}

// World is one sampled deterministic subgraph of a probabilistic graph.
// It implements scc.Subgraph.
type World struct {
	g    *graph.Graph
	live []uint64 // bitset over edge indices
}

// Sample draws a possible world: every edge of g is kept independently with
// its probability, using the provided generator. m (nil disables) records
// the world and its edge draws once after sampling, off the per-edge loop.
func Sample(g *graph.Graph, r *rng.PCG32, m *Metrics) *World {
	w := &World{
		g:    g,
		live: make([]uint64, (g.NumEdges()+63)/64),
	}
	for i := 0; i < g.NumEdges(); i++ {
		if r.Bernoulli(g.EdgeProb(int32(i))) {
			w.live[i>>6] |= 1 << uint(i&63)
		}
	}
	m.world(g.NumEdges())
	return w
}

// SampleMany draws count independent worlds using generators split from
// seed, so that world i is identical regardless of how many other worlds
// are drawn or in what order.
func SampleMany(g *graph.Graph, seed uint64, count int) []*World {
	master := rng.New(seed)
	out := make([]*World, count)
	for i := range out {
		out[i] = Sample(g, master.Split(uint64(i)), nil)
	}
	return out
}

// Graph returns the underlying probabilistic graph.
func (w *World) Graph() *graph.Graph { return w.g }

// NumNodes implements scc.Subgraph.
func (w *World) NumNodes() int { return w.g.NumNodes() }

// EdgeLive reports whether edge index i survived in this world.
func (w *World) EdgeLive(i int32) bool {
	return w.live[i>>6]&(1<<uint(i&63)) != 0
}

// NumLiveEdges returns the number of surviving edges.
func (w *World) NumLiveEdges() int {
	total := 0
	for _, word := range w.live {
		total += bits.OnesCount64(word)
	}
	return total
}

// VisitSuccessors implements scc.Subgraph: it visits the heads of all live
// edges leaving u.
func (w *World) VisitSuccessors(u int32, f func(v int32)) {
	lo, hi := w.g.EdgeRange(u)
	for i := lo; i < hi; i++ {
		if w.EdgeLive(i) {
			f(w.g.EdgeTo(i))
		}
	}
}

// Reachable returns the sorted cascade of src in this world. visited is
// caller scratch of length NumNodes, all false on entry and reset on exit;
// results append to out.
func (w *World) Reachable(src graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
	return w.ReachableFromSet([]graph.NodeID{src}, visited, out)
}

// ReachableFromSet returns the sorted cascade of the seed set in this world.
func (w *World) ReachableFromSet(seeds []graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
	start := len(out)
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			out = append(out, s)
		}
	}
	for head := start; head < len(out); head++ {
		u := out[head]
		lo, hi := w.g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			if !w.EdgeLive(i) {
				continue
			}
			v := w.g.EdgeTo(i)
			if !visited[v] {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	res := out[start:]
	for _, v := range res {
		visited[v] = false
	}
	slices.Sort(res)
	return out
}

// Sampler draws lazy cascades of one graph under one propagation model
// without materializing a world: IC edges are flipped, and LT in-edge
// choices drawn, only when the traversal first examines them. Each is
// drawn at most once per traversal, so the cascades have exactly the
// distribution of reachability in a materialized world of the same model.
// A Sampler holds per-traversal scratch: use one per goroutine.
type Sampler struct {
	g       *graph.Graph
	model   Model
	visited []bool
	// LT only: choice[v] is 0 until v's in-edge choice is drawn in this
	// traversal, then 1 + v's chosen in-neighbour, or v + 1 when v keeps no
	// in-edge (v never activates itself); drawn lists the nodes to reset.
	choice []graph.NodeID
	drawn  []graph.NodeID
}

// NewSampler returns a Sampler of g's cascades under model. LT weights
// should have been checked once with ValidateModel.
func NewSampler(g *graph.Graph, model Model) *Sampler {
	s := &Sampler{g: g, model: model, visited: make([]bool, g.NumNodes())}
	if model == LT {
		s.choice = make([]graph.NodeID, g.NumNodes())
	}
	return s
}

// Forward draws one cascade of the seed set and appends it to out in
// activation order, seeds first and duplicates dropped. When steps is
// non-nil it appends, in the same order, each node's activation step: 0
// for a seed, its activator's step + 1 otherwise. m (nil disables) records
// the cascade's size and draws once per cascade.
func (s *Sampler) Forward(seeds []graph.NodeID, r *rng.PCG32, out []graph.NodeID, steps []int32, m *Metrics) ([]graph.NodeID, []int32) {
	start := len(out)
	var draws int
	if s.model == LT {
		out, steps, draws = s.forwardLT(seeds, r, out, steps)
	} else {
		out, steps, draws = s.forwardIC(s.g, seeds, r, out, steps)
	}
	m.cascade(len(out)-start, draws)
	return out, steps
}

// Reverse draws one reverse-reachable set: the nodes that reach target in
// a random live-edge world, appended to out in discovery order, target
// first. Under IC it is the forward cascade of target in the transpose.
// Under LT every node keeps at most one in-edge, so the set is a random
// walk back along chosen in-edges that stops at a node keeping none or at
// a node already on the walk (Tang, Xiao & Shi, SIGMOD 2014).
func (s *Sampler) Reverse(target graph.NodeID, r *rng.PCG32, out []graph.NodeID) []graph.NodeID {
	rev := s.g.Reverse()
	if s.model != LT {
		out, _, _ = s.forwardIC(rev, []graph.NodeID{target}, r, out, nil)
		return out
	}
	start := len(out)
	for v := target; !s.visited[v]; {
		s.visited[v] = true
		out = append(out, v)
		i := ltChoice(rev, v, r)
		if i < 0 {
			break
		}
		v = rev.EdgeTo(i)
	}
	s.reset(out[start:])
	return out
}

// forwardIC is the lazy IC cascade over g: each edge from an active node
// to an inactive one is flipped once, in BFS order. It returns the number
// of flips.
func (s *Sampler) forwardIC(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, out []graph.NodeID, steps []int32) ([]graph.NodeID, []int32, int) {
	visited := s.visited
	start, base := len(out), len(steps)
	out, steps = s.seed(seeds, out, steps)
	draws := 0
	for head := start; head < len(out); head++ {
		end := len(out)
		succ, probs := g.Neighbors(out[head])
		for i, v := range succ {
			if visited[v] {
				continue
			}
			draws++
			if r.Bernoulli(probs[i]) {
				visited[v] = true
				out = append(out, v)
			}
		}
		steps = stepPast(steps, base+head-start, len(out)-end)
	}
	s.reset(out[start:])
	return out, steps, draws
}

// forwardLT is the lazy LT cascade: an inactive node's in-edge choice is
// drawn the first time the BFS examines one of its in-edges, and the node
// activates when its chosen in-neighbour is active, that is, when the edge
// examined comes from the choice. It returns the number of choices drawn.
func (s *Sampler) forwardLT(seeds []graph.NodeID, r *rng.PCG32, out []graph.NodeID, steps []int32) ([]graph.NodeID, []int32, int) {
	start, base := len(out), len(steps)
	out, steps = s.seed(seeds, out, steps)
	rev := s.g.Reverse()
	for head := start; head < len(out); head++ {
		u, end := out[head], len(out)
		succ, _ := s.g.Neighbors(u)
		for _, v := range succ {
			if s.visited[v] {
				continue
			}
			if s.choice[v] == 0 {
				s.choice[v] = v + 1
				if e := ltChoice(rev, v, r); e >= 0 {
					s.choice[v] = rev.EdgeTo(e) + 1
				}
				s.drawn = append(s.drawn, v)
			}
			if s.choice[v] == u+1 {
				s.visited[v] = true
				out = append(out, v)
			}
		}
		steps = stepPast(steps, base+head-start, len(out)-end)
	}
	draws := len(s.drawn)
	for _, v := range s.drawn {
		s.choice[v] = 0
	}
	s.drawn = s.drawn[:0]
	s.reset(out[start:])
	return out, steps, draws
}

// seed appends the distinct seeds, at step 0 when steps are recorded.
func (s *Sampler) seed(seeds []graph.NodeID, out []graph.NodeID, steps []int32) ([]graph.NodeID, []int32) {
	for _, v := range seeds {
		if !s.visited[v] {
			s.visited[v] = true
			out = append(out, v)
			if steps != nil {
				steps = append(steps, 0)
			}
		}
	}
	return out, steps
}

// stepPast appends, when steps are recorded, k steps one past steps[at]:
// those of the k nodes the node at that position activated.
func stepPast(steps []int32, at, k int) []int32 {
	for ; steps != nil && k > 0; k-- {
		steps = append(steps, steps[at]+1)
	}
	return steps
}

// reset clears the visited marks of one traversal.
func (s *Sampler) reset(nodes []graph.NodeID) {
	for _, v := range nodes {
		s.visited[v] = false
	}
}
