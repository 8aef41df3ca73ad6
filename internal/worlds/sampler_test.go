package worlds

import (
	"fmt"
	"slices"
	"testing"

	"soi/internal/bound"
	"soi/internal/graph"
	"soi/internal/oracle"
	"soi/internal/rng"
	"soi/internal/statcheck"
)

// ltCheckGraph is a 6-node graph with a cycle whose incoming weights sum
// to 0.5–0.9 per node, so every node has a residual "no in-edge" choice:
// a valid LT weighting, small enough for the exact LT oracle.
func ltCheckGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(6)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 2, 0.3)
	b.AddEdge(1, 2, 0.4)
	b.AddEdge(2, 3, 0.6)
	b.AddEdge(1, 3, 0.3)
	b.AddEdge(3, 1, 0.2)
	b.AddEdge(3, 4, 0.5)
	b.AddEdge(2, 4, 0.4)
	b.AddEdge(4, 5, 0.7)
	b.AddEdge(5, 0, 0.5)
	return b.MustBuild()
}

// randomGraph draws n nodes and about m edges with probabilities in
// [0.05, 0.35].
func randomGraph(t testing.TB, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u != v {
			b.AddEdge(u, v, 0.05+0.3*r.Float64())
		}
	}
	return b.MustBuild()
}

// referenceIC is the lazy IC cascade as the Monte-Carlo spread estimator
// drew it before the samplers were merged: the activation-order queue,
// one Bernoulli per edge from an active to an inactive node.
func referenceIC(g *graph.Graph, seeds []graph.NodeID, r *rng.PCG32, visited []bool) []graph.NodeID {
	queue := make([]graph.NodeID, 0, len(seeds)*4)
	for _, s := range seeds {
		if !visited[s] {
			visited[s] = true
			queue = append(queue, s)
		}
	}
	for head := 0; head < len(queue); head++ {
		u := queue[head]
		lo, hi := g.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := g.EdgeTo(i)
			if visited[v] {
				continue
			}
			if r.Bernoulli(g.EdgeProb(i)) {
				visited[v] = true
				queue = append(queue, v)
			}
		}
	}
	for _, v := range queue {
		visited[v] = false
	}
	return queue
}

// referenceReverseIC is the RR-set BFS as the RR seed selection drew it
// before the samplers were merged, run over the transpose.
func referenceReverseIC(rev *graph.Graph, src graph.NodeID, r *rng.PCG32, visited []bool) []graph.NodeID {
	out := []graph.NodeID{src}
	visited[src] = true
	for head := 0; head < len(out); head++ {
		u := out[head]
		lo, hi := rev.EdgeRange(u)
		for i := lo; i < hi; i++ {
			v := rev.EdgeTo(i)
			if visited[v] {
				continue
			}
			if r.Bernoulli(rev.EdgeProb(i)) {
				visited[v] = true
				out = append(out, v)
			}
		}
	}
	for _, v := range out {
		visited[v] = false
	}
	return out
}

// sameAfter fails unless the two generators are in the same state.
func sameAfter(t *testing.T, name string, a, b *rng.PCG32) {
	t.Helper()
	if x, y := a.Uint64(), b.Uint64(); x != y {
		t.Fatalf("%s: generators diverged (next draws %x vs %x)", name, x, y)
	}
}

// TestForwardICBitIdentical pins the forward IC sampler to the lazy IC
// cascade it replaced: over many generator seeds and seed sets of a random
// graph it returns the same nodes in the same order and leaves the
// generator in the same state, so every IC estimate is unchanged.
func TestForwardICBitIdentical(t *testing.T) {
	g := randomGraph(t, 21, 300, 1500)
	smp := NewSampler(g, IC)
	visited := make([]bool, g.NumNodes())
	pick := rng.New(22)
	var out []graph.NodeID
	steps := make([]int32, 0, g.NumNodes())
	for i := uint64(0); i < 500; i++ {
		seeds := make([]graph.NodeID, 1+pick.Intn(4))
		for j := range seeds {
			seeds[j] = graph.NodeID(pick.Intn(g.NumNodes()))
		}
		r1, r2 := rng.New(i), rng.New(i)
		want := referenceIC(g, seeds, r1, visited)
		// Recording steps must not change a draw either.
		if i%2 == 0 {
			out, steps = smp.Forward(seeds, r2, out[:0], steps[:0], nil)
		} else {
			out, _ = smp.Forward(seeds, r2, out[:0], nil, nil)
		}
		if !slices.Equal(out, want) {
			t.Fatalf("seed %d, seeds %v: forward %v, reference %v", i, seeds, out, want)
		}
		sameAfter(t, "forward IC", r1, r2)
	}
}

// TestReverseICBitIdentical pins the reverse IC sampler to the RR-set BFS
// it replaced, run over the transpose.
func TestReverseICBitIdentical(t *testing.T) {
	g := randomGraph(t, 23, 300, 1500)
	smp := NewSampler(g, IC)
	visited := make([]bool, g.NumNodes())
	var out []graph.NodeID
	for i := uint64(0); i < 500; i++ {
		target := graph.NodeID(i % uint64(g.NumNodes()))
		r1, r2 := rng.New(i), rng.New(i)
		want := referenceReverseIC(g.Reverse(), target, r1, visited)
		if out = smp.Reverse(target, r2, out[:0]); !slices.Equal(out, want) {
			t.Fatalf("seed %d, target %d: reverse %v, reference %v", i, target, out, want)
		}
		sameAfter(t, "reverse IC", r1, r2)
	}
}

// referenceSampleLT is SampleLT as it was before its per-node choice was
// shared with the lazy LT sampler.
func referenceSampleLT(g *graph.Graph, r *rng.PCG32) *World {
	w := &World{g: g, live: make([]uint64, (g.NumEdges()+63)/64)}
	rev := g.Reverse()
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		lo, hi := rev.EdgeRange(v)
		if lo == hi {
			continue
		}
		u01 := r.Float64()
		acc := 0.0
		for i := lo; i < hi; i++ {
			acc += rev.EdgeProb(i)
			if u01 < acc {
				fi := forwardEdgeIndex(g, rev.EdgeTo(i), v)
				w.live[fi>>6] |= 1 << uint(fi&63)
				break
			}
		}
	}
	return w
}

// TestSampleLTBitIdentical: SampleLT draws the same worlds it drew before
// its choice loop was shared, so LT index bytes do not change.
func TestSampleLTBitIdentical(t *testing.T) {
	g := ltCheckGraph(t)
	for i := uint64(0); i < 200; i++ {
		r1, r2 := rng.New(i), rng.New(i)
		a, b := referenceSampleLT(g, r1), SampleLT(g, r2, nil)
		for e := range a.live {
			if a.live[e] != b.live[e] {
				t.Fatalf("seed %d: live words %d differ: %x vs %x", i, e, a.live[e], b.live[e])
			}
		}
		sameAfter(t, "SampleLT", r1, r2)
	}
}

// ltDistributionClose holds an empirical cascade distribution to the exact
// LT oracle: each outcome's frequency is a mean of [0,1] indicators, so a
// Hoeffding bound unioned over the oracle's support (plus one for the mass
// outside it) applies.
func ltDistributionClose(t *testing.T, name string, g *graph.Graph, seeds []graph.NodeID, trials int, draw func() []graph.NodeID) {
	t.Helper()
	d, err := oracle.LTCascadeDistribution(g, seeds)
	if err != nil {
		t.Fatal(err)
	}
	counts := map[uint64]int{}
	for i := 0; i < trials; i++ {
		counts[oracle.MaskOf(draw())]++
	}
	support := d.Support()
	b := bound.Hoeffding(trials, statcheck.DefaultDelta).Union(len(support) + 1)
	inside := 0
	for _, o := range support {
		statcheck.Close(t, fmt.Sprintf("%s outcome %v", name, oracle.SetOf(o.Mask)), float64(counts[o.Mask])/float64(trials), o.Prob, b)
		inside += counts[o.Mask]
	}
	statcheck.Close(t, name+" mass outside the support", float64(trials-inside)/float64(trials), 0, b)
}

// TestForwardLTMatchesOracle: the lazy LT cascade and the threshold-form
// simulation both have the exact LT cascade distribution.
func TestForwardLTMatchesOracle(t *testing.T) {
	g := ltCheckGraph(t)
	const trials = 40000
	for i, seeds := range [][]graph.NodeID{{0}, {3}, {1, 4}} {
		smp := NewSampler(g, LT)
		r := rng.New(30 + uint64(i))
		var buf []graph.NodeID
		ltDistributionClose(t, "lazy LT", g, seeds, trials, func() []graph.NodeID {
			buf, _ = smp.Forward(seeds, r, buf[:0], nil, nil)
			return buf
		})
		r2 := rng.New(40 + uint64(i))
		ltDistributionClose(t, "SimulateLT", g, seeds, trials, func() []graph.NodeID {
			return SimulateLT(g, seeds, r2)
		})
	}
}

// TestReverseLTBracketsOracle: n·(hits/θ) over θ reverse LT sets, where a
// set is hit when it meets the seed set, estimates the LT spread (Borgs et
// al.); each hit is a [0,1] indicator, so the Hoeffding bound scaled by n
// brackets the exact LT spread.
func TestReverseLTBracketsOracle(t *testing.T) {
	g := ltCheckGraph(t)
	n := g.NumNodes()
	const theta = 40000
	seedSets := [][]graph.NodeID{{0}, {3}, {1, 4}}
	b := bound.Hoeffding(theta, statcheck.DefaultDelta).Union(len(seedSets)).Scale(float64(n))
	for i, seeds := range seedSets {
		d, err := oracle.LTCascadeDistribution(g, seeds)
		if err != nil {
			t.Fatal(err)
		}
		smp := NewSampler(g, LT)
		master := rng.New(50 + uint64(i))
		seedMask := oracle.MaskOf(seeds)
		hits := 0
		var set []graph.NodeID
		for j := 0; j < theta; j++ {
			r := master.Split(uint64(j))
			set = smp.Reverse(graph.NodeID(r.Intn(n)), r, set[:0])
			if oracle.MaskOf(set)&seedMask != 0 {
				hits++
			}
		}
		statcheck.Close(t, "LT RR spread", float64(n)*float64(hits)/theta, d.ExpectedSpread(), b)
	}
}

// TestForwardSteps: under both models the distinct seeds come first at
// step 0, and every other node's step is one more than the step of an
// active in-neighbour, so steps never decrease in activation order. On a
// certain line (weight 1 per hop) node i activates at step i.
func TestForwardSteps(t *testing.T) {
	line := graph.NewBuilder(8)
	for i := 0; i < 7; i++ {
		line.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 1)
	}
	for _, model := range []Model{IC, LT} {
		nodes, steps := NewSampler(line.MustBuild(), model).Forward([]graph.NodeID{0}, rng.New(2), nil, []int32{}, nil)
		for i := range nodes {
			if len(nodes) != 8 || int(nodes[i]) != i || int(steps[i]) != i {
				t.Fatalf("%v: line cascade %v at steps %v", model, nodes, steps)
			}
		}

		g := ltCheckGraph(t)
		rev := g.Reverse()
		smp := NewSampler(g, model)
		r := rng.New(3)
		for trial := 0; trial < 500; trial++ {
			nodes, steps := smp.Forward([]graph.NodeID{4, 1, 4}, r, nil, []int32{}, nil)
			if len(steps) != len(nodes) || nodes[0] != 4 || nodes[1] != 1 || steps[0] != 0 || steps[1] != 0 {
				t.Fatalf("%v: cascade %v at steps %v does not start with seeds 4, 1 at step 0", model, nodes, steps)
			}
			at := map[graph.NodeID]int32{}
			for i, v := range nodes {
				at[v] = steps[i]
			}
			for i, v := range nodes[2:] {
				if steps[i+2] < steps[i+1] {
					t.Fatalf("%v: steps %v decrease", model, steps)
				}
				pred, _ := rev.Neighbors(v)
				ok := false
				for _, u := range pred {
					if s, active := at[u]; active && s == steps[i+2]-1 {
						ok = true
					}
				}
				if !ok {
					t.Fatalf("%v: node %d at step %d has no active in-neighbour at step %d", model, v, steps[i+2], steps[i+2]-1)
				}
			}
		}
	}
}
