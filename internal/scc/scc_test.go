package scc

import (
	"sort"
	"testing"
	"testing/quick"

	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

// lineGraph builds 0 -> 1 -> 2 -> ... -> n-1.
func lineGraph(n int) SliceGraph {
	g := make(SliceGraph, n)
	for i := 0; i < n-1; i++ {
		g[i] = []int32{int32(i + 1)}
	}
	return g
}

// cycleGraph builds a single directed n-cycle.
func cycleGraph(n int) SliceGraph {
	g := make(SliceGraph, n)
	for i := 0; i < n; i++ {
		g[i] = []int32{int32((i + 1) % n)}
	}
	return g
}

func TestTarjanLine(t *testing.T) {
	d := Tarjan(lineGraph(5))
	if d.NumComps != 5 {
		t.Fatalf("NumComps = %d, want 5", d.NumComps)
	}
	// Every component is a singleton.
	for c := int32(0); int(c) < d.NumComps; c++ {
		if d.Size(c) != 1 {
			t.Fatalf("component %d size %d", c, d.Size(c))
		}
	}
	// Reverse-topological numbering: edge u->v implies Comp[u] > Comp[v].
	for u := 0; u < 4; u++ {
		if d.Comp[u] <= d.Comp[u+1] {
			t.Fatalf("component order violated: Comp[%d]=%d Comp[%d]=%d",
				u, d.Comp[u], u+1, d.Comp[u+1])
		}
	}
}

func TestTarjanCycle(t *testing.T) {
	d := Tarjan(cycleGraph(6))
	if d.NumComps != 1 {
		t.Fatalf("NumComps = %d, want 1", d.NumComps)
	}
	if d.Size(0) != 6 {
		t.Fatalf("component size %d, want 6", d.Size(0))
	}
}

func TestTarjanTwoCyclesBridge(t *testing.T) {
	// Cycle {0,1,2} -> bridge -> cycle {3,4,5}.
	g := SliceGraph{
		{1}, {2}, {0, 3}, {4}, {5}, {3},
	}
	d := Tarjan(g)
	if d.NumComps != 2 {
		t.Fatalf("NumComps = %d, want 2", d.NumComps)
	}
	if d.Comp[0] != d.Comp[1] || d.Comp[1] != d.Comp[2] {
		t.Fatal("first cycle split")
	}
	if d.Comp[3] != d.Comp[4] || d.Comp[4] != d.Comp[5] {
		t.Fatal("second cycle split")
	}
	if d.Comp[0] <= d.Comp[3] {
		t.Fatal("edge crosses upward in component numbering")
	}
}

func TestTarjanDisconnected(t *testing.T) {
	g := make(SliceGraph, 4) // no edges at all
	d := Tarjan(g)
	if d.NumComps != 4 {
		t.Fatalf("NumComps = %d, want 4", d.NumComps)
	}
}

func TestMembersPartition(t *testing.T) {
	g := SliceGraph{{1}, {0}, {3}, {2}, {}}
	d := Tarjan(g)
	seen := make([]bool, len(g))
	for c := int32(0); int(c) < d.NumComps; c++ {
		for _, v := range d.Members(c) {
			if seen[v] {
				t.Fatalf("node %d in two components", v)
			}
			seen[v] = true
			if d.Comp[v] != c {
				t.Fatalf("Members/Comp disagree for node %d", v)
			}
		}
	}
	for v, ok := range seen {
		if !ok {
			t.Fatalf("node %d in no component", v)
		}
	}
}

func TestCondenseBridge(t *testing.T) {
	g := SliceGraph{
		{1}, {2}, {0, 3}, {4}, {5}, {3},
	}
	d := Tarjan(g)
	dag := Condense(g, d)
	if len(dag) != 2 {
		t.Fatalf("dag size %d", len(dag))
	}
	big := d.Comp[0]
	small := d.Comp[3]
	if len(dag[big]) != 1 || dag[big][0] != small {
		t.Fatalf("dag[%d] = %v, want [%d]", big, dag[big], small)
	}
	if len(dag[small]) != 0 {
		t.Fatalf("dag[%d] = %v, want empty", small, dag[small])
	}
}

func TestCondenseDeduplicates(t *testing.T) {
	// Two nodes in one SCC both point into another SCC: one condensed edge.
	g := SliceGraph{
		{1, 2}, {0, 2}, {3}, {2},
	}
	d := Tarjan(g)
	dag := Condense(g, d)
	if NumEdges(dag) != 1 {
		t.Fatalf("condensed edges = %d, want 1", NumEdges(dag))
	}
}

func TestReachableComps(t *testing.T) {
	// DAG: 3 -> 2 -> 0, 3 -> 1 (already in reverse-topo numbering).
	dag := SliceGraph{{}, {}, {0}, {2, 1}}
	mark := make([]bool, 4)
	got := ReachableComps(dag, 3, mark, nil)
	sort.Slice(got, func(i, j int) bool { return got[i] < got[j] })
	want := []int32{0, 1, 2, 3}
	if len(got) != len(want) {
		t.Fatalf("got %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got %v, want %v", got, want)
		}
	}
	for _, m := range mark {
		if m {
			t.Fatal("mark not reset")
		}
	}
}

func TestReduceDiamondPlusShortcut(t *testing.T) {
	// 3 -> {2,1}, 2 -> 0, 1 -> 0, plus redundant 3 -> 0.
	dag := SliceGraph{{}, {0}, {0}, {2, 1, 0}}
	red := reduceExact(dag)
	if NumEdges(red) != 4 {
		t.Fatalf("reduced edges = %d, want 4 (only 3->0 removed): %v", NumEdges(red), red)
	}
	for _, v := range red[3] {
		if v == 0 {
			t.Fatal("redundant edge 3->0 survived")
		}
	}
}

func TestReduceChainShortcuts(t *testing.T) {
	// Complete DAG on 5 nodes (every i -> j for i > j): reduction is the
	// Hamiltonian path 4->3->2->1->0.
	dag := make(SliceGraph, 5)
	for i := 4; i >= 1; i-- {
		for j := i - 1; j >= 0; j-- {
			dag[i] = append(dag[i], int32(j))
		}
	}
	red := reduceExact(dag)
	if NumEdges(red) != 4 {
		t.Fatalf("reduced edges = %d, want 4: %v", NumEdges(red), red)
	}
	for i := 4; i >= 1; i-- {
		if len(red[i]) != 1 || red[i][0] != int32(i-1) {
			t.Fatalf("node %d: %v, want [%d]", i, red[i], i-1)
		}
	}
}

func TestReduceTwoHopSound(t *testing.T) {
	dag := SliceGraph{{}, {0}, {0}, {2, 1, 0}}
	red := reduceTwoHop(dag)
	// 3->0 is witnessed by 3->2->0: must be removed.
	for _, v := range red[3] {
		if v == 0 {
			t.Fatal("two-hop reduction kept witnessed-redundant edge")
		}
	}
	if !sameReachability(dag, red) {
		t.Fatal("two-hop reduction changed reachability")
	}
}

func TestReduceSelectsVariant(t *testing.T) {
	dag := SliceGraph{{}, {0}, {1, 0}}
	exact := Reduce(dag, 10)
	if NumEdges(exact) != 2 {
		t.Fatalf("exact path: %d edges, want 2", NumEdges(exact))
	}
	partial := Reduce(dag, 1) // force the two-hop variant
	if !sameReachability(dag, partial) {
		t.Fatal("partial variant changed reachability")
	}
}

func reachClosure(g SliceGraph) [][]bool {
	n := len(g)
	r := make([][]bool, n)
	for i := range r {
		r[i] = make([]bool, n)
		mark := make([]bool, n)
		for _, c := range ReachableComps(g, int32(i), mark, nil) {
			r[i][c] = true
		}
	}
	return r
}

func sameReachability(a, b SliceGraph) bool {
	ra, rb := reachClosure(a), reachClosure(b)
	for i := range ra {
		for j := range ra[i] {
			if ra[i][j] != rb[i][j] {
				return false
			}
		}
	}
	return true
}

// randomDAG produces a DAG whose edges all point from higher to lower ids,
// matching the Condense invariant.
func randomDAG(r *rng.PCG32, n, m int) SliceGraph {
	dag := make(SliceGraph, n)
	seen := map[[2]int32]bool{}
	for len(seen) < m {
		u := int32(r.Intn(n))
		v := int32(r.Intn(n))
		if u == v {
			continue
		}
		if u < v {
			u, v = v, u
		}
		if seen[[2]int32{u, v}] {
			continue
		}
		seen[[2]int32{u, v}] = true
		dag[u] = append(dag[u], v)
	}
	return dag
}

func TestQuickReducePreservesReachability(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(12) + 3
		m := r.Intn(3*n) + 1
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		dag := randomDAG(r, n, m)
		return sameReachability(dag, reduceExact(dag)) &&
			sameReachability(dag, reduceTwoHop(dag))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickReduceExactMinimal(t *testing.T) {
	// Exact reduction must be minimal: removing any surviving edge changes
	// reachability.
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(8) + 3
		m := r.Intn(2*n) + 1
		if max := n * (n - 1) / 2; m > max {
			m = max
		}
		dag := randomDAG(r, n, m)
		red := reduceExact(dag)
		for u := range red {
			for i := range red[u] {
				trimmed := make(SliceGraph, len(red))
				for w := range red {
					trimmed[w] = append([]int32(nil), red[w]...)
				}
				trimmed[u] = append(append([]int32(nil), red[u][:i]...), red[u][i+1:]...)
				if sameReachability(dag, trimmed) {
					return false // edge was removable: not minimal
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
}

func TestQuickTarjanMatchesBruteForce(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(12) + 2
		g := make(SliceGraph, n)
		for i := 0; i < 3*n; i++ {
			u, v := int32(r.Intn(n)), int32(r.Intn(n))
			if u == v {
				continue
			}
			g[u] = append(g[u], v)
		}
		d := Tarjan(g)
		// Brute force: u,v in the same SCC iff mutually reachable.
		closure := reachClosure(g)
		for u := 0; u < n; u++ {
			for v := 0; v < n; v++ {
				same := closure[u][v] && closure[v][u]
				if same != (d.Comp[u] == d.Comp[v]) {
					return false
				}
			}
		}
		// Numbering invariant: every edge goes to an equal-or-smaller comp.
		for u := 0; u < n; u++ {
			for _, v := range g[u] {
				if d.Comp[u] < d.Comp[v] {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Fatal(err)
	}
}

func TestTopoOrder(t *testing.T) {
	got := TopoOrder(4)
	want := []int32{3, 2, 1, 0}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("TopoOrder(4) = %v", got)
		}
	}
}

func BenchmarkTarjanSparse(b *testing.B) {
	r := rng.New(1)
	const n = 20000
	g := make(SliceGraph, n)
	for i := 0; i < 4*n; i++ {
		u, v := int32(r.Intn(n)), int32(r.Intn(n))
		if u != v {
			g[u] = append(g[u], v)
		}
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Tarjan(g)
	}
}

// TestReduceShrinksSampledCondensations checks the reduction on what the
// index feeds it: condensations of sampled worlds of a random graph just
// above its percolation threshold (mean live out-degree 1.2), whose
// redundant edges it must remove without changing reachability.
func TestReduceShrinksSampledCondensations(t *testing.T) {
	const n = 200
	r := rng.New(8)
	b := graph.NewBuilder(n)
	for i := 0; i < 800; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u != v {
			b.AddEdge(u, v, 0.3)
		}
	}
	g := b.MustBuild()
	edges := func(dag SliceGraph) int {
		m := 0
		for _, succs := range dag {
			m += len(succs)
		}
		return m
	}
	plain, reduced := 0, 0
	for i, w := range worlds.SampleMany(g, 9, 10) {
		dag := Condense(w, Tarjan(w))
		red := Reduce(dag, DefaultMaxExactReduction)
		if !sameReachability(dag, red) {
			t.Fatalf("world %d: reduction changed reachability", i)
		}
		plain += edges(dag)
		reduced += edges(red)
	}
	t.Logf("condensation edges %d -> %d", plain, reduced)
	if reduced >= plain {
		t.Fatalf("reduction did not shrink the condensations: %d -> %d edges", plain, reduced)
	}
}
