package graph

import (
	"bytes"
	"sort"
	"strings"
	"sync"
	"testing"
	"testing/quick"

	"soi/internal/rng"
)

// paperGraph builds the Figure-1 example graph from the paper:
// v5->v1 (0.7), v5->v2 (0.4), v5->v4 (0.3), v1->v2 (0.1), v4->v2 (0.6),
// v2->v1 (0.1), v2->v3 (0.4). Nodes are mapped v1..v5 -> 0..4.
func paperGraph(t *testing.T) *Graph {
	t.Helper()
	b := NewBuilder(5)
	b.AddEdge(4, 0, 0.7)
	b.AddEdge(4, 1, 0.4)
	b.AddEdge(4, 3, 0.3)
	b.AddEdge(0, 1, 0.1)
	b.AddEdge(3, 1, 0.6)
	b.AddEdge(1, 0, 0.1)
	b.AddEdge(1, 2, 0.4)
	g, err := b.Build()
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return g
}

func TestBuildBasic(t *testing.T) {
	g := paperGraph(t)
	if g.NumNodes() != 5 {
		t.Fatalf("NumNodes = %d, want 5", g.NumNodes())
	}
	if g.NumEdges() != 7 {
		t.Fatalf("NumEdges = %d, want 7", g.NumEdges())
	}
	if err := g.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
	if got := g.Prob(4, 0); got != 0.7 {
		t.Errorf("Prob(4,0) = %v, want 0.7", got)
	}
	if got := g.Prob(0, 4); got != 0 {
		t.Errorf("Prob(0,4) = %v, want 0", got)
	}
	if g.OutDegree(4) != 3 {
		t.Errorf("OutDegree(4) = %d, want 3", g.OutDegree(4))
	}
	if g.OutDegree(2) != 0 {
		t.Errorf("OutDegree(2) = %d, want 0", g.OutDegree(2))
	}
}

func TestNeighborsSorted(t *testing.T) {
	g := paperGraph(t)
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		nbrs, probs := g.Neighbors(u)
		if len(nbrs) != len(probs) {
			t.Fatalf("node %d: neighbor/prob length mismatch", u)
		}
		for i := 1; i < len(nbrs); i++ {
			if nbrs[i-1] >= nbrs[i] {
				t.Fatalf("node %d: neighbors not strictly sorted: %v", u, nbrs)
			}
		}
	}
}

func TestBuildRejectsBadInput(t *testing.T) {
	cases := []struct {
		name string
		add  func(b *Builder)
	}{
		{"self-loop", func(b *Builder) { b.AddEdge(1, 1, 0.5) }},
		{"zero prob", func(b *Builder) { b.AddEdge(0, 1, 0) }},
		{"negative prob", func(b *Builder) { b.AddEdge(0, 1, -0.1) }},
		{"prob > 1", func(b *Builder) { b.AddEdge(0, 1, 1.5) }},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := NewBuilder(2)
			tc.add(b)
			if _, err := b.Build(); err == nil {
				t.Fatal("Build accepted invalid edge")
			}
		})
	}
}

func TestDuplicateEdgesNoisyOr(t *testing.T) {
	b := NewBuilder(2)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(0, 1, 0.5)
	g, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	if g.NumEdges() != 1 {
		t.Fatalf("NumEdges = %d, want 1", g.NumEdges())
	}
	if got, want := g.Prob(0, 1), 0.75; got != want {
		t.Fatalf("Prob = %v, want %v", got, want)
	}
}

func TestMutualEdge(t *testing.T) {
	b := NewBuilder(2)
	b.AddMutualEdge(0, 1, 0.2)
	g := b.MustBuild()
	if g.Prob(0, 1) != 0.2 || g.Prob(1, 0) != 0.2 {
		t.Fatal("mutual edge not symmetric")
	}
}

func TestInDegrees(t *testing.T) {
	g := paperGraph(t)
	in := g.InDegrees()
	want := []int{2, 3, 1, 1, 0} // v1 gets from v5,v2; v2 from v5,v1,v4; v3 from v2; v4 from v5
	for i, w := range want {
		if in[i] != w {
			t.Errorf("InDegree(%d) = %d, want %d", i, in[i], w)
		}
	}
}

func TestReverse(t *testing.T) {
	g := paperGraph(t)
	r := g.Reverse()
	if r.NumNodes() != g.NumNodes() || r.NumEdges() != g.NumEdges() {
		t.Fatal("reverse changed counts")
	}
	for _, e := range g.Edges() {
		if got := r.Prob(e.To, e.From); got != e.Prob {
			t.Fatalf("reverse missing edge (%d,%d,%v): got %v", e.To, e.From, e.Prob, got)
		}
	}
	if r2 := g.Reverse(); r2 != r {
		t.Fatal("Reverse not memoized")
	}
}

// TestReverseConcurrentFirstCalls: goroutines that race on the first
// Reverse of a fresh graph all get the one transpose. Run under -race,
// where an unsynchronized memo reports a data race.
func TestReverseConcurrentFirstCalls(t *testing.T) {
	b := NewBuilder(50)
	for u := 0; u < 50; u++ {
		b.AddEdge(NodeID(u), NodeID((u+1)%50), 0.5)
		b.AddEdge(NodeID(u), NodeID((u+7)%50), 0.25)
	}
	g := b.MustBuild()
	got := make([]*Graph, 4)
	var wg sync.WaitGroup
	for i := range got {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i] = g.Reverse()
		}(i)
	}
	wg.Wait()
	for i, r := range got {
		if r != got[0] {
			t.Fatalf("goroutine %d got a second transpose", i)
		}
	}
	if r := got[0]; r.NumEdges() != g.NumEdges() || r.Prob(1, 0) != 0.5 || r.Prob(7, 0) != 0.25 {
		t.Fatalf("transpose wrong: %d edges, p(1,0)=%v p(7,0)=%v", r.NumEdges(), r.Prob(1, 0), r.Prob(7, 0))
	}
}

func TestReverseOfReverseEqualsOriginal(t *testing.T) {
	g := paperGraph(t)
	rr := g.Reverse().Reverse()
	a, b := g.Edges(), rr.Edges()
	if len(a) != len(b) {
		t.Fatal("edge count differs")
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("edge %d differs: %v vs %v", i, a[i], b[i])
		}
	}
}

func TestWithProbs(t *testing.T) {
	g := paperGraph(t)
	ng, err := g.WithProbs(func(u, v NodeID, old float64) float64 { return 0.5 })
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ng.Edges() {
		if e.Prob != 0.5 {
			t.Fatalf("edge %v not reassigned", e)
		}
	}
	// Original untouched.
	if g.Prob(4, 0) != 0.7 {
		t.Fatal("WithProbs mutated the receiver")
	}
}

func TestWithProbsRejectsInvalid(t *testing.T) {
	g := paperGraph(t)
	if _, err := g.WithProbs(func(u, v NodeID, old float64) float64 { return 2 }); err == nil {
		t.Fatal("accepted probability 2")
	}
}

func TestReachable(t *testing.T) {
	g := paperGraph(t)
	cases := []struct {
		src  NodeID
		want []NodeID
	}{
		{4, []NodeID{0, 1, 2, 3, 4}},
		{0, []NodeID{0, 1, 2}},
		{1, []NodeID{0, 1, 2}},
		{2, []NodeID{2}},
		{3, []NodeID{0, 1, 2, 3}},
	}
	for _, tc := range cases {
		got := g.Reachable(tc.src)
		if !equalIDs(got, tc.want) {
			t.Errorf("Reachable(%d) = %v, want %v", tc.src, got, tc.want)
		}
	}
}

func TestReachableIntoScratchReset(t *testing.T) {
	g := paperGraph(t)
	visited := make([]bool, g.NumNodes())
	_ = g.ReachableInto(4, visited, nil)
	for i, v := range visited {
		if v {
			t.Fatalf("visited[%d] not reset", i)
		}
	}
	// Reuse must give the same answer.
	got := g.ReachableInto(0, visited, nil)
	if !equalIDs(got, []NodeID{0, 1, 2}) {
		t.Fatalf("reuse gave %v", got)
	}
}

func TestReachableFromSet(t *testing.T) {
	g := paperGraph(t)
	got := g.ReachableFromSet([]NodeID{2, 3})
	want := []NodeID{0, 1, 2, 3}
	if !equalIDs(got, want) {
		t.Fatalf("ReachableFromSet = %v, want %v", got, want)
	}
	// Union property: R({a,b}) == R(a) ∪ R(b).
	union := mergeIDs(g.Reachable(2), g.Reachable(3))
	if !equalIDs(got, union) {
		t.Fatalf("union property violated: %v vs %v", got, union)
	}
}

func TestTSVRoundTrip(t *testing.T) {
	g := paperGraph(t)
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g, nil); err != nil {
		t.Fatal(err)
	}
	g2, orig, err := ReadTSV(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
		t.Fatalf("round trip changed counts: %d/%d vs %d/%d",
			g2.NumNodes(), g2.NumEdges(), g.NumNodes(), g.NumEdges())
	}
	// IDs may be remapped; compare via the original-ID mapping.
	back := func(id NodeID) NodeID { return NodeID(orig[id]) }
	for u := NodeID(0); int(u) < g2.NumNodes(); u++ {
		nbrs, probs := g2.Neighbors(u)
		for i, v := range nbrs {
			if got := g.Prob(back(u), back(v)); got != probs[i] {
				t.Fatalf("edge (%d,%d) prob %v, want %v", back(u), back(v), probs[i], got)
			}
		}
	}
}

func TestReadTSVComments(t *testing.T) {
	in := "# comment\n\n10 20 0.5\n20 10 0.25\n"
	g, orig, err := ReadTSV(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	if g.NumNodes() != 2 || g.NumEdges() != 2 {
		t.Fatalf("got %d nodes %d edges", g.NumNodes(), g.NumEdges())
	}
	if orig[0] != 10 || orig[1] != 20 {
		t.Fatalf("orig mapping = %v", orig)
	}
}

func TestReadTSVErrors(t *testing.T) {
	for _, in := range []string{
		"1 2\n",           // missing field
		"a 2 0.5\n",       // bad id
		"1 b 0.5\n",       // bad id
		"1 2 x\n",         // bad prob
		"1 2 0\n",         // zero prob rejected at Build
		"1 1 0.5\n",       // self loop rejected at Build
		"1 2 0.5 extra\n", // too many fields
	} {
		if _, _, err := ReadTSV(strings.NewReader(in)); err == nil {
			t.Errorf("ReadTSV(%q) accepted invalid input", in)
		}
	}
}

func TestQuickRandomGraphValidates(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(40) + 2
		b := NewBuilder(n)
		for i := 0; i < 3*n; i++ {
			u := NodeID(r.Intn(n))
			v := NodeID(r.Intn(n))
			if u == v {
				continue
			}
			b.AddEdge(u, v, 0.05+0.9*r.Float64())
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		return g.Validate() == nil
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReachabilityMatchesFloydWarshall(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(15) + 2
		b := NewBuilder(n)
		adj := make([][]bool, n)
		for i := range adj {
			adj[i] = make([]bool, n)
			adj[i][i] = true
		}
		for i := 0; i < 2*n; i++ {
			u, v := r.Intn(n), r.Intn(n)
			if u == v {
				continue
			}
			b.AddEdge(NodeID(u), NodeID(v), 1)
			adj[u][v] = true
		}
		g, err := b.Build()
		if err != nil {
			return false
		}
		// Transitive closure by Floyd-Warshall.
		for k := 0; k < n; k++ {
			for i := 0; i < n; i++ {
				if adj[i][k] {
					for j := 0; j < n; j++ {
						if adj[k][j] {
							adj[i][j] = true
						}
					}
				}
			}
		}
		for s := 0; s < n; s++ {
			got := g.Reachable(NodeID(s))
			var want []NodeID
			for v := 0; v < n; v++ {
				if adj[s][v] {
					want = append(want, NodeID(v))
				}
			}
			if !equalIDs(got, want) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Fatal(err)
	}
}

func equalIDs(a, b []NodeID) bool {
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

func mergeIDs(a, b []NodeID) []NodeID {
	m := map[NodeID]bool{}
	for _, v := range a {
		m[v] = true
	}
	for _, v := range b {
		m[v] = true
	}
	out := make([]NodeID, 0, len(m))
	for v := range m {
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}
