// Package graph defines the directed probabilistic graph that all algorithms
// in this library operate on.
//
// A Graph is an immutable compressed-sparse-row (CSR) structure: for each
// node u, the out-neighbors and the corresponding influence probabilities
// p(u,v) are stored in contiguous slices. Immutability after Build lets every
// sampler, index builder and simulator share a single Graph across goroutines
// without synchronization.
//
// Node identifiers are dense int32 values in [0, N). Loaders that accept
// arbitrary external identifiers remap them to this dense space and keep the
// mapping available for presentation.
package graph

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sort"
	"sync"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses IDs
// 0..N-1 exactly.
type NodeID = int32

// Edge is a directed probabilistic edge used while assembling a graph.
type Edge struct {
	From NodeID
	To   NodeID
	Prob float64
}

// Graph is an immutable directed probabilistic graph in CSR form.
type Graph struct {
	n int

	// CSR of the forward graph: out-neighbors of u are
	// adj[offsets[u]:offsets[u+1]], with matching probabilities in probs.
	offsets []int32
	adj     []NodeID
	probs   []float64

	// Reverse CSR, built by the first Reverse() call under revOnce.
	revOnce sync.Once
	rev     *Graph
}

// Builder accumulates edges and produces an immutable Graph.
// The zero value is ready to use.
type Builder struct {
	n     int
	edges []Edge
}

// NewBuilder returns a Builder for a graph with n nodes. More nodes can be
// implied later by adding edges with larger endpoints.
func NewBuilder(n int) *Builder {
	return &Builder{n: n}
}

// AddEdge records the directed edge (from, to) with influence probability
// prob. Duplicate (from, to) pairs are combined at Build time by noisy-or:
// p = 1 - (1-p1)(1-p2)..., matching the independent-trials semantics of the
// IC model when several observations support the same link.
func (b *Builder) AddEdge(from, to NodeID, prob float64) {
	if int(from) >= b.n {
		b.n = int(from) + 1
	}
	if int(to) >= b.n {
		b.n = int(to) + 1
	}
	b.edges = append(b.edges, Edge{From: from, To: to, Prob: prob})
}

// EnsureNode grows the graph to contain id even if no edge touches it.
// Shard subgraphs use this for nodes whose every edge crosses the cut.
func (b *Builder) EnsureNode(id NodeID) {
	if int(id) >= b.n {
		b.n = int(id) + 1
	}
}

// AddMutualEdge records both (a,b) and (b,a) with the same probability.
// The paper treats undirected benchmark graphs this way ("we just consider
// the edges existing in both directions").
func (b *Builder) AddMutualEdge(a, bNode NodeID, prob float64) {
	b.AddEdge(a, bNode, prob)
	b.AddEdge(bNode, a, prob)
}

// Build validates the accumulated edges and returns the immutable Graph.
func (b *Builder) Build() (*Graph, error) {
	for _, e := range b.edges {
		if e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("graph: negative node id in edge (%d,%d)", e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.From)
		}
		if !validProb(e.Prob) {
			return nil, fmt.Errorf("graph: edge (%d,%d) has probability %v outside (0,1]", e.From, e.To, e.Prob)
		}
	}
	// Noisy-or is not associative in floating point, so the order duplicate
	// (From, To) pairs are folded in is part of the result: it is the order
	// this comparison sort (the pdqsort behind sort.Slice) leaves them in.
	slices.SortFunc(b.edges, func(x, y Edge) int {
		if x.From != y.From {
			return cmp.Compare(x.From, y.From)
		}
		return cmp.Compare(x.To, y.To)
	})
	// Combine duplicates by noisy-or.
	dedup := b.edges[:0]
	for _, e := range b.edges {
		if len(dedup) > 0 {
			last := &dedup[len(dedup)-1]
			if last.From == e.From && last.To == e.To {
				last.Prob = 1 - (1-last.Prob)*(1-e.Prob)
				continue
			}
		}
		dedup = append(dedup, e)
	}
	b.edges = dedup

	g := &Graph{
		n:       b.n,
		offsets: make([]int32, b.n+1),
		adj:     make([]NodeID, len(b.edges)),
		probs:   make([]float64, len(b.edges)),
	}
	for i, e := range b.edges {
		g.offsets[e.From+1]++
		g.adj[i] = e.To
		g.probs[i] = e.Prob
	}
	for u := 1; u <= b.n; u++ {
		g.offsets[u] += g.offsets[u-1]
	}
	return g, nil
}

// validProb reports whether p is a usable edge probability, in (0, 1].
// Written this way round so NaN fails it.
func validProb(p float64) bool { return p > 0 && p <= 1 }

// MustBuild is Build for known-good inputs (tests, generators); it panics on
// error.
func (b *Builder) MustBuild() *Graph {
	g, err := b.Build()
	if err != nil {
		panic(err)
	}
	return g
}

// FromEdges builds a graph with n nodes directly from an edge list.
func FromEdges(n int, edges []Edge) (*Graph, error) {
	b := NewBuilder(n)
	b.edges = append(b.edges, edges...)
	for _, e := range edges {
		if int(e.From) >= b.n {
			b.n = int(e.From) + 1
		}
		if int(e.To) >= b.n {
			b.n = int(e.To) + 1
		}
	}
	return b.Build()
}

// NumNodes returns the number of nodes N; valid IDs are 0..N-1.
func (g *Graph) NumNodes() int { return g.n }

// NumEdges returns the number of directed edges.
func (g *Graph) NumEdges() int { return len(g.adj) }

// OutDegree returns the out-degree of u.
func (g *Graph) OutDegree(u NodeID) int {
	return int(g.offsets[u+1] - g.offsets[u])
}

// Neighbors returns the out-neighbors of u and their probabilities.
// The returned slices alias the graph's internal storage: callers must not
// modify them.
func (g *Graph) Neighbors(u NodeID) ([]NodeID, []float64) {
	lo, hi := g.offsets[u], g.offsets[u+1]
	return g.adj[lo:hi], g.probs[lo:hi]
}

// EdgeRange returns the half-open range of edge indices leaving u, usable
// with EdgeTo/EdgeProb. Edge indices are stable for the graph's lifetime and
// enumerate all edges as u scans 0..N-1.
func (g *Graph) EdgeRange(u NodeID) (lo, hi int32) {
	return g.offsets[u], g.offsets[u+1]
}

// EdgeTo returns the head of edge index i.
func (g *Graph) EdgeTo(i int32) NodeID { return g.adj[i] }

// EdgeProb returns the probability of edge index i.
func (g *Graph) EdgeProb(i int32) float64 { return g.probs[i] }

// Prob returns the probability of edge (u,v), or 0 if the edge is absent.
func (g *Graph) Prob(u, v NodeID) float64 {
	lo, hi := g.offsets[u], g.offsets[u+1]
	seg := g.adj[lo:hi]
	i := sort.Search(len(seg), func(i int) bool { return seg[i] >= v })
	if i < len(seg) && seg[i] == v {
		return g.probs[lo+int32(i)]
	}
	return 0
}

// HasEdge reports whether edge (u,v) exists.
func (g *Graph) HasEdge(u, v NodeID) bool { return g.Prob(u, v) > 0 }

// InDegrees returns the in-degree of every node.
func (g *Graph) InDegrees() []int {
	in := make([]int, g.n)
	for _, v := range g.adj {
		in[v]++
	}
	return in
}

// Reverse returns the transpose graph (same nodes, all edges flipped, same
// probabilities). The first call builds it; every call, from any
// goroutine, returns that one transpose.
func (g *Graph) Reverse() *Graph {
	g.revOnce.Do(func() { g.rev = g.transpose() })
	return g.rev
}

func (g *Graph) transpose() *Graph {
	r := &Graph{
		n:       g.n,
		offsets: make([]int32, g.n+1),
		adj:     make([]NodeID, len(g.adj)),
		probs:   make([]float64, len(g.probs)),
	}
	for _, v := range g.adj {
		r.offsets[v+1]++
	}
	for u := 1; u <= g.n; u++ {
		r.offsets[u] += r.offsets[u-1]
	}
	cursor := make([]int32, g.n)
	copy(cursor, r.offsets[:g.n])
	for u := NodeID(0); int(u) < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			v := g.adj[i]
			j := cursor[v]
			cursor[v]++
			r.adj[j] = u
			r.probs[j] = g.probs[i]
		}
	}
	return r
}

// WithProbs returns a new graph with identical topology and the probability
// of every edge replaced by assign(u, v, oldProb). This is how the
// probability-assignment methods (WC, fixed, learnt) are applied to a
// topology.
func (g *Graph) WithProbs(assign func(u, v NodeID, old float64) float64) (*Graph, error) {
	ng := &Graph{
		n:       g.n,
		offsets: g.offsets,
		adj:     g.adj,
		probs:   make([]float64, len(g.probs)),
	}
	for u := NodeID(0); int(u) < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			p := assign(u, g.adj[i], g.probs[i])
			if !validProb(p) {
				return nil, fmt.Errorf("graph: assigned probability %v for edge (%d,%d) outside (0,1]", p, u, g.adj[i])
			}
			ng.probs[i] = p
		}
	}
	return ng, nil
}

// Edges returns a copy of all edges, ordered by (From, To).
func (g *Graph) Edges() []Edge {
	out := make([]Edge, 0, len(g.adj))
	for u := NodeID(0); int(u) < g.n; u++ {
		lo, hi := g.offsets[u], g.offsets[u+1]
		for i := lo; i < hi; i++ {
			out = append(out, Edge{From: u, To: g.adj[i], Prob: g.probs[i]})
		}
	}
	return out
}

// Validate checks structural invariants; it is used by loaders and tests.
func (g *Graph) Validate() error {
	if len(g.offsets) != g.n+1 {
		return errors.New("graph: offsets length mismatch")
	}
	if g.offsets[0] != 0 || int(g.offsets[g.n]) != len(g.adj) {
		return errors.New("graph: offsets endpoints invalid")
	}
	for u := 0; u < g.n; u++ {
		if g.offsets[u] > g.offsets[u+1] {
			return fmt.Errorf("graph: offsets not monotone at node %d", u)
		}
		seg := g.adj[g.offsets[u]:g.offsets[u+1]]
		for i, v := range seg {
			if v < 0 || int(v) >= g.n {
				return fmt.Errorf("graph: edge target %d out of range at node %d", v, u)
			}
			if i > 0 && seg[i-1] >= v {
				return fmt.Errorf("graph: neighbors of %d not strictly sorted", u)
			}
		}
	}
	for i, p := range g.probs {
		if !validProb(p) {
			return fmt.Errorf("graph: probability %v at edge index %d outside (0,1]", p, i)
		}
	}
	return nil
}

// MeanProb returns the average edge probability, 0 for an edgeless graph.
func (g *Graph) MeanProb() float64 {
	if len(g.probs) == 0 {
		return 0
	}
	sum := 0.0
	for _, p := range g.probs {
		sum += p
	}
	return sum / float64(len(g.probs))
}
