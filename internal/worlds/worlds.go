// Package worlds implements possible-world semantics for probabilistic
// graphs: a possible world keeps each edge independently with its
// probability (Eq. 1 of the paper).
//
// Two sampling styles are provided:
//
//   - World: a materialized live-edge sample of the whole graph, stored as a
//     bitset over edge indices. Worlds feed the cascade index and any
//     computation that asks many reachability queries of the same sample.
//   - SampleCascade: a single cascade from one source (or seed set) without
//     materializing the world, flipping edges lazily during BFS. Each edge is
//     examined at most once per traversal, so the lazy flip yields exactly
//     the same distribution over reachable sets as materializing first.
package worlds

import (
	"math/bits"

	"soi/internal/graph"
	"soi/internal/rng"
)

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
	return w.reachMulti([]graph.NodeID{src}, visited, out)
}

// ReachableFromSet returns the sorted cascade of the seed set in this world.
func (w *World) ReachableFromSet(seeds []graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
	return w.reachMulti(seeds, visited, out)
}

func (w *World) reachMulti(seeds []graph.NodeID, visited []bool, out []graph.NodeID) []graph.NodeID {
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
	sortIDs(res)
	return out
}

// SampleCascade draws one random cascade from src without materializing a
// world: edges are flipped lazily as the BFS reaches their tails. visited is
// caller scratch (length NumNodes, all false, reset on exit); the cascade is
// appended to out and returned sorted.
func SampleCascade(g *graph.Graph, src graph.NodeID, r *rng.PCG32, visited []bool, out []graph.NodeID) []graph.NodeID {
	return SampleCascadeFromSet(g, []graph.NodeID{src}, r, visited, out, nil)
}

// SampleCascadeFromSet is SampleCascade for a seed set: the cascade is the
// union of nodes reached from any seed through live edges. m (nil disables)
// records the cascade size and edge draws once per cascade.
func SampleCascadeFromSet(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, visited []bool, out []graph.NodeID, m *Metrics) []graph.NodeID {
	start := len(out)
	flips := 0
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			out = append(out, s)
		}
	}
	for head := start; head < len(out); head++ {
		u := out[head]
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.EdgeTo(i)
			if visited[v] {
				continue
			}
			flips++
			if r.Bernoulli(g.EdgeProb(i)) {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	res := out[start:]
	for _, v := range res {
		visited[v] = false
	}
	sortIDs(res)
	m.cascade(len(res), flips)
	return out
}

func sortIDs(s []graph.NodeID) {
	if len(s) < 2 {
		return
	}
	// Insertion sort below a threshold, simple bottom-up merge above. The
	// cascades here are usually short; avoiding sort.Slice's reflection
	// keeps this off the sampling profile.
	if len(s) <= 48 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	buf := make([]graph.NodeID, len(s))
	for width := 1; width < len(s); width *= 2 {
		for lo := 0; lo < len(s); lo += 2 * width {
			mid := lo + width
			hi := lo + 2*width
			if mid > len(s) {
				mid = len(s)
			}
			if hi > len(s) {
				hi = len(s)
			}
			i, j, k := lo, mid, lo
			for i < mid && j < hi {
				if s[i] <= s[j] {
					buf[k] = s[i]
					i++
				} else {
					buf[k] = s[j]
					j++
				}
				k++
			}
			copy(buf[k:hi], s[i:mid])
			copy(buf[k+mid-i:hi], s[j:hi])
		}
		copy(s, buf)
	}
}
