package worlds

import (
	"math"
	"slices"
	"sort"
	"testing"
	"testing/quick"

	"soi/internal/graph"
	"soi/internal/rng"
)

// paperGraph is the Figure-1 example (v1..v5 -> 0..4); v5=4 is the source
// used in the paper's worked probabilities.
func paperGraph(t testing.TB) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	return b.MustBuild()
}

func TestSampleDeterministicPerSeed(t *testing.T) {
	g := paperGraph(t)
	ws1 := SampleMany(g, 42, 5)
	ws2 := SampleMany(g, 42, 10)
	for i := 0; i < 5; i++ {
		for e := int32(0); e < int32(g.NumEdges()); e++ {
			if ws1[i].EdgeLive(e) != ws2[i].EdgeLive(e) {
				t.Fatalf("world %d edge %d differs between runs", i, e)
			}
		}
	}
}

func TestEdgeLiveRate(t *testing.T) {
	b := graph.NewBuilder(2)
	b.AddEdge(0, 1, 0.3)
	g := b.MustBuild()
	const trials = 50000
	r := rng.New(7)
	live := 0
	for i := 0; i < trials; i++ {
		if Sample(g, r, nil).EdgeLive(0) {
			live++
		}
	}
	rate := float64(live) / trials
	if math.Abs(rate-0.3) > 0.01 {
		t.Fatalf("edge live rate %v, want ~0.3", rate)
	}
}

func TestNumLiveEdges(t *testing.T) {
	g := paperGraph(t)
	w := Sample(g, rng.New(3), nil)
	count := 0
	for e := int32(0); e < int32(g.NumEdges()); e++ {
		if w.EdgeLive(e) {
			count++
		}
	}
	if w.NumLiveEdges() != count {
		t.Fatalf("NumLiveEdges = %d, want %d", w.NumLiveEdges(), count)
	}
}

func TestWorldReachableMatchesVisit(t *testing.T) {
	g := paperGraph(t)
	visited := make([]bool, g.NumNodes())
	for trial := 0; trial < 50; trial++ {
		w := Sample(g, rng.New(uint64(trial)), nil)
		for src := graph.NodeID(0); int(src) < g.NumNodes(); src++ {
			got := w.Reachable(src, visited, nil)
			want := bfsReference(w, src)
			if !equal(got, want) {
				t.Fatalf("trial %d src %d: %v vs %v", trial, src, got, want)
			}
		}
	}
}

// bfsReference recomputes reachability through the Subgraph interface only.
func bfsReference(w *World, src graph.NodeID) []graph.NodeID {
	seen := map[int32]bool{int32(src): true}
	queue := []int32{int32(src)}
	for len(queue) > 0 {
		u := queue[0]
		queue = queue[1:]
		w.VisitSuccessors(u, func(v int32) {
			if !seen[v] {
				seen[v] = true
				queue = append(queue, v)
			}
		})
	}
	out := make([]graph.NodeID, 0, len(seen))
	for v := range seen {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestPaperExample1 checks the worked probabilities from Example 1 of the
// paper: starting at v5 (node 4),
//
//	Pr[cascade == {v5,v1}]    = 0.2646
//	Pr[cascade == {v5,v2,v4}] = 0.036936
//	Pr[cascade == {v5,v1,v3,v4}] = 0 (v3 only reachable via v2)
//
// (The paper states cascades as sets of infected "others"; here the source
// itself is part of its cascade.)
func TestPaperExample1(t *testing.T) {
	g := paperGraph(t)
	const trials = 400000
	smp := NewSampler(g, IC)
	r := rng.New(99)
	countA, countB, countC := 0, 0, 0
	var c []graph.NodeID
	for i := 0; i < trials; i++ {
		c, _ = smp.Forward([]graph.NodeID{4}, r, c[:0], nil, nil)
		slices.Sort(c)
		switch {
		case equal(c, []graph.NodeID{0, 4}):
			countA++
		case equal(c, []graph.NodeID{1, 3, 4}):
			countB++
		case equal(c, []graph.NodeID{0, 2, 3, 4}):
			countC++
		}
	}
	pa := float64(countA) / trials
	pb := float64(countB) / trials
	if math.Abs(pa-0.2646) > 0.005 {
		t.Errorf("Pr[{v1}] = %v, want ~0.2646", pa)
	}
	if math.Abs(pb-0.036936) > 0.003 {
		t.Errorf("Pr[{v2,v4}] = %v, want ~0.036936", pb)
	}
	if countC != 0 {
		t.Errorf("impossible cascade {v1,v3,v4} occurred %d times", countC)
	}
}

// TestLazyMatchesMaterialized verifies that lazy per-source sampling has the
// same distribution as materializing worlds: compare the per-node inclusion
// frequencies of both samplers.
func TestLazyMatchesMaterialized(t *testing.T) {
	g := paperGraph(t)
	const trials = 200000
	src := graph.NodeID(4)
	visited := make([]bool, g.NumNodes())

	lazyCount := make([]int, g.NumNodes())
	smp := NewSampler(g, IC)
	r := rng.New(5)
	var c []graph.NodeID
	for i := 0; i < trials; i++ {
		c, _ = smp.Forward([]graph.NodeID{src}, r, c[:0], nil, nil)
		for _, v := range c {
			lazyCount[v]++
		}
	}
	matCount := make([]int, g.NumNodes())
	r2 := rng.New(6)
	for i := 0; i < trials; i++ {
		w := Sample(g, r2, nil)
		for _, v := range w.Reachable(src, visited, nil) {
			matCount[v]++
		}
	}
	for v := 0; v < g.NumNodes(); v++ {
		a := float64(lazyCount[v]) / trials
		b := float64(matCount[v]) / trials
		if math.Abs(a-b) > 0.006 {
			t.Errorf("node %d: lazy %v vs materialized %v", v, a, b)
		}
	}
}

// TestForwardSeedSet: under both models a seed set's cascade starts with
// the distinct seeds in order and holds no node twice.
func TestForwardSeedSet(t *testing.T) {
	for _, model := range []Model{IC, LT} {
		g := ltCheckGraph(t)
		smp := NewSampler(g, model)
		r := rng.New(8)
		for i := 0; i < 200; i++ {
			c, _ := smp.Forward([]graph.NodeID{2, 3, 2}, r, nil, nil, nil)
			if len(c) < 2 || c[0] != 2 || c[1] != 3 {
				t.Fatalf("%v: cascade %v does not start with the seeds 2, 3", model, c)
			}
			seen := map[graph.NodeID]bool{}
			for _, v := range c {
				if seen[v] {
					t.Fatalf("%v: node %d twice in %v", model, v, c)
				}
				seen[v] = true
			}
		}
	}
}

func TestScratchResetAfterSampling(t *testing.T) {
	g := ltCheckGraph(t)
	for _, model := range []Model{IC, LT} {
		smp := NewSampler(g, model)
		r := rng.New(9)
		for i := 0; i < 20; i++ {
			smp.Forward([]graph.NodeID{0}, r, nil, nil, nil)
			smp.Reverse(graph.NodeID(i%g.NumNodes()), r, nil)
		}
		for i, v := range smp.visited {
			if v {
				t.Fatalf("%v: visited[%d] not reset", model, i)
			}
		}
		for i, c := range smp.choice {
			if c != 0 {
				t.Fatalf("%v: choice[%d] = %d not reset", model, i, c)
			}
		}
	}
}

func TestQuickCascadeAlwaysContainsSource(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(20) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, 0.05+0.9*r.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		src := graph.NodeID(r.Intn(n))
		c, _ := NewSampler(g, IC).Forward([]graph.NodeID{src}, r, nil, nil, nil)
		return contains(c, src)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickWorldCascadeSubsetOfDeterministicReach(t *testing.T) {
	// A sampled cascade can never include a node unreachable in the full
	// topology.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(20) + 2
		b := graph.NewBuilder(n)
		for i := 0; i < 2*n; i++ {
			u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
			if u != v {
				b.AddEdge(u, v, 0.05+0.9*r.Float64())
			}
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		src := graph.NodeID(r.Intn(n))
		full := map[graph.NodeID]bool{}
		for _, v := range g.Reachable(src) {
			full[v] = true
		}
		visited := make([]bool, n)
		w := Sample(g, r, nil)
		for _, v := range w.Reachable(src, visited, nil) {
			if !full[v] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestSortIDsLarge(t *testing.T) {
	r := rng.New(12)
	s := make([]graph.NodeID, 500)
	for i := range s {
		s[i] = graph.NodeID(r.Intn(1000))
	}
	slices.Sort(s)
	for i := 1; i < len(s); i++ {
		if s[i-1] > s[i] {
			t.Fatalf("not sorted at %d: %v > %v", i, s[i-1], s[i])
		}
	}
}

func contains(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func equal(a, b []graph.NodeID) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

func BenchmarkSampleWorld(b *testing.B) {
	bb := graph.NewBuilder(1000)
	r := rng.New(1)
	for i := 0; i < 5000; i++ {
		u, v := graph.NodeID(r.Intn(1000)), graph.NodeID(r.Intn(1000))
		if u != v {
			bb.AddEdge(u, v, 0.1)
		}
	}
	g := bb.MustBuild()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Sample(g, r, nil)
	}
}

func BenchmarkSampleCascadeLazy(b *testing.B) {
	bb := graph.NewBuilder(1000)
	r := rng.New(1)
	for i := 0; i < 5000; i++ {
		u, v := graph.NodeID(r.Intn(1000)), graph.NodeID(r.Intn(1000))
		if u != v {
			bb.AddEdge(u, v, 0.1)
		}
	}
	g := bb.MustBuild()
	smp := NewSampler(g, IC)
	var out []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		out, _ = smp.Forward([]graph.NodeID{graph.NodeID(i % 1000)}, r, out[:0], nil, nil)
	}
}

func TestSortIDsAllLengths(t *testing.T) {
	// The bottom-up merge path has boundary behaviour at the insertion-sort
	// cutoff and at power-of-two widths; exercise every length through 260.
	r := rng.New(77)
	for n := 0; n <= 260; n++ {
		s := make([]graph.NodeID, n)
		for i := range s {
			s[i] = graph.NodeID(r.Intn(64)) // duplicates likely
		}
		want := append([]graph.NodeID(nil), s...)
		sort.Slice(want, func(i, j int) bool { return want[i] < want[j] })
		slices.Sort(s)
		for i := range s {
			if s[i] != want[i] {
				t.Fatalf("length %d: position %d: got %v want %v", n, i, s, want)
			}
		}
	}
}
