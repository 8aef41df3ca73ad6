package sketch

import (
	"bytes"
	"context"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
)

// randomGraph builds a seeded random digraph: every ordered pair gets an
// edge with probability density, with a random activation probability.
func randomGraph(t testing.TB, n int, density float64, seed int64) *graph.Graph {
	t.Helper()
	r := rand.New(rand.NewSource(seed))
	b := graph.NewBuilder(n)
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && r.Float64() < density {
				b.AddEdge(graph.NodeID(u), graph.NodeID(v), 0.1+0.8*r.Float64())
			}
		}
	}
	return b.MustBuild()
}

func buildIndex(t testing.TB, g *graph.Graph, ell int, seed uint64) *index.Index {
	t.Helper()
	x, err := index.Build(context.Background(), g, index.Options{Samples: ell, Seed: seed}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	return x
}

func mustBuild(t *testing.T, x *index.Index, opts Options) *Sketch {
	t.Helper()
	s, err := Build(context.Background(), x, opts)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func serialize(t *testing.T, s *Sketch) []byte {
	t.Helper()
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestBuildInvariants checks the structural contract of a built sketch:
// CSR offsets monotone, per-node rank lists strictly ascending and at most
// k long, and every world live on an eagerly built index.
func TestBuildInvariants(t *testing.T) {
	g := randomGraph(t, 40, 0.1, 1)
	x := buildIndex(t, g, 16, 7)
	s := mustBuild(t, x, Options{K: 8, Seed: 3})

	if s.Nodes() != g.NumNodes() || s.Worlds() != 16 || s.LiveWorlds() != 16 {
		t.Fatalf("shape: nodes=%d worlds=%d live=%d", s.Nodes(), s.Worlds(), s.LiveWorlds())
	}
	if s.IndexFingerprint() != x.Fingerprint() {
		t.Fatalf("fingerprint %016x != index %016x", s.IndexFingerprint(), x.Fingerprint())
	}
	for v := 0; v < s.Nodes(); v++ {
		ranks := s.NodeRanks(graph.NodeID(v))
		if len(ranks) == 0 || len(ranks) > s.K() {
			t.Fatalf("node %d: %d ranks, want 1..%d", v, len(ranks), s.K())
		}
		for i := 1; i < len(ranks); i++ {
			if ranks[i] <= ranks[i-1] {
				t.Fatalf("node %d ranks not strictly ascending at %d", v, i)
			}
		}
	}
}

// TestBuildDeterministicAcrossWorkers: the sketch bytes must not depend on
// the parallelism used to build it.
func TestBuildDeterministicAcrossWorkers(t *testing.T) {
	g := randomGraph(t, 60, 0.08, 2)
	x := buildIndex(t, g, 13, 11)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	want := serialize(t, mustBuild(t, x, Options{K: 6, Seed: 5}))
	for _, w := range []int{2, 3, 8} {
		runtime.GOMAXPROCS(w)
		got := serialize(t, mustBuild(t, x, Options{K: 6, Seed: 5}))
		if !bytes.Equal(got, want) {
			t.Fatalf("workers=%d produced different sketch bytes", w)
		}
	}
}

func TestBuildRejectsK1(t *testing.T) {
	g := randomGraph(t, 5, 0.3, 3)
	x := buildIndex(t, g, 2, 1)
	if _, err := Build(context.Background(), x, Options{K: 1}); err == nil {
		t.Fatal("k=1 accepted; the estimator needs k >= 2")
	}
}

// randomRankList makes a strictly ascending list of ranks drawn from a
// small universe so lists share elements (exercising dedup).
func randomRankList(r *rand.Rand, maxLen int) []uint64 {
	set := map[uint64]bool{}
	for i := r.Intn(maxLen + 1); i > 0; i-- {
		set[uint64(r.Intn(200))] = true
	}
	out := make([]uint64, 0, len(set))
	for v := range set {
		out = append(out, v)
	}
	slices.Sort(out)
	return out
}

// TestMergeAlgebra property-checks the sketch-union algebra the combined
// build and the greedy rely on: commutative, associative, idempotent, nil
// as identity, output truncated to k and strictly ascending.
func TestMergeAlgebra(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	for trial := 0; trial < 2000; trial++ {
		k := 1 + r.Intn(12)
		a, b, c := randomRankList(r, 15), randomRankList(r, 15), randomRankList(r, 15)

		ab, ba := Merge(k, a, b), Merge(k, b, a)
		if !slices.Equal(ab, ba) {
			t.Fatalf("k=%d: Merge not commutative:\n a=%v\n b=%v\n ab=%v\n ba=%v", k, a, b, ab, ba)
		}
		if got := Merge(k, a, a); !slices.Equal(got, a[:min(k, len(a))]) {
			t.Fatalf("k=%d: Merge not idempotent: a=%v got=%v", k, a, got)
		}
		if got := Merge(k, a, nil); !slices.Equal(got, a[:min(k, len(a))]) {
			t.Fatalf("k=%d: nil not identity: a=%v got=%v", k, a, got)
		}
		left := Merge(k, Merge(k, a, b), c)
		right := Merge(k, a, Merge(k, b, c))
		if !slices.Equal(left, right) {
			t.Fatalf("k=%d: Merge not associative", k)
		}
		if len(ab) > k {
			t.Fatalf("k=%d: merge overflowed to %d", k, len(ab))
		}
		for i := 1; i < len(ab); i++ {
			if ab[i] <= ab[i-1] {
				t.Fatalf("merge output not strictly ascending: %v", ab)
			}
		}
	}
}

// TestMergeOrderInsensitive folds several lists in random orders and checks
// the result never depends on fold order (the property that makes the
// combined per-node sketch independent of world arrival order).
func TestMergeOrderInsensitive(t *testing.T) {
	r := rand.New(rand.NewSource(7))
	for trial := 0; trial < 500; trial++ {
		k := 2 + r.Intn(10)
		lists := make([][]uint64, 2+r.Intn(5))
		for i := range lists {
			lists[i] = randomRankList(r, 12)
		}
		fold := func(order []int) []uint64 {
			var acc []uint64
			for _, i := range order {
				acc = Merge(k, acc, lists[i])
			}
			return acc
		}
		order := make([]int, len(lists))
		for i := range order {
			order[i] = i
		}
		want := fold(order)
		for p := 0; p < 4; p++ {
			r.Shuffle(len(order), func(i, j int) { order[i], order[j] = order[j], order[i] })
			if got := fold(order); !slices.Equal(got, want) {
				t.Fatalf("fold order %v changed the merge: got=%v want=%v", order, got, want)
			}
		}
	}
}

// TestExhaustiveSketchExact: with k >= n*ell no rank is ever evicted, so the
// sketch holds the full reachability multiset and every estimate must equal
// the exact average cascade size bit for bit.
func TestExhaustiveSketchExact(t *testing.T) {
	const n, ell = 12, 16
	g := randomGraph(t, n, 0.15, 4)
	x := buildIndex(t, g, ell, 9)
	s := mustBuild(t, x, Options{K: n * ell, Seed: 13})

	scratch := x.NewScratch()
	exact := func(seeds []graph.NodeID) float64 {
		total := 0
		for i := 0; i < ell; i++ {
			total += x.CascadeSizeFromSet(seeds, i, scratch)
		}
		return float64(total) / float64(ell)
	}

	for v := 0; v < n; v++ {
		want := exact([]graph.NodeID{graph.NodeID(v)})
		if got := s.EstimateSphereSize(graph.NodeID(v)); got != want {
			t.Fatalf("node %d: sphere size %v != exact %v", v, got, want)
		}
	}
	r := rand.New(rand.NewSource(21))
	for trial := 0; trial < 50; trial++ {
		var seeds []graph.NodeID
		for v := 0; v < n; v++ {
			if r.Intn(3) == 0 {
				seeds = append(seeds, graph.NodeID(v))
			}
		}
		if len(seeds) == 0 {
			continue
		}
		want := exact(seeds)
		if got := s.EstimateSpread(seeds); got != want {
			t.Fatalf("seeds %v: spread %v != exact %v", seeds, got, want)
		}
	}
	if got := s.EstimateSpread(nil); got != 0 {
		t.Fatalf("empty seed set: spread %v, want 0", got)
	}
}

// TestRelabelInvariance: sketching a relabeled copy of a deterministic
// graph with the correspondingly relabeled rank function yields the same
// per-node sketches, and exhaustive sketches give identical estimates for
// corresponding nodes. (Deterministic edges keep the sampled worlds equal
// on both sides regardless of edge order.)
func TestRelabelInvariance(t *testing.T) {
	const n, ell = 20, 4
	r := rand.New(rand.NewSource(31))
	perm := r.Perm(n)

	var edges [][2]int
	for u := 0; u < n; u++ {
		for v := 0; v < n; v++ {
			if u != v && r.Float64() < 0.12 {
				edges = append(edges, [2]int{u, v})
			}
		}
	}
	b1, b2 := graph.NewBuilder(n), graph.NewBuilder(n)
	for _, e := range edges {
		b1.AddEdge(graph.NodeID(e[0]), graph.NodeID(e[1]), 1)
		b2.AddEdge(graph.NodeID(perm[e[0]]), graph.NodeID(perm[e[1]]), 1)
	}
	x1 := buildIndex(t, b1.MustBuild(), ell, 5)
	x2 := buildIndex(t, b2.MustBuild(), ell, 6)

	// Rank-pass level: rank2(perm(v)) = rank1(v) must give node-identical
	// world sketches.
	rank1 := func(v int32) uint64 { return uint64(v)*0x9E3779B9 + 1 }
	inv := make([]int32, n)
	for v, p := range perm {
		inv[p] = int32(v)
	}
	rank2 := func(v int32) uint64 { return rank1(inv[v]) }
	var sc1, sc2 index.RankScratch
	for i := 0; i < ell; i++ {
		comp1, ok1 := x1.WorldReachRanks(i, n, rank1, &sc1)
		comp2, ok2 := x2.WorldReachRanks(i, n, rank2, &sc2)
		if !ok1 || !ok2 {
			t.Fatalf("world %d not available", i)
		}
		for v := 0; v < n; v++ {
			if !slices.Equal(sc1.List(comp1[v]), sc2.List(comp2[perm[v]])) {
				t.Fatalf("world %d node %d: sketch differs under relabeling", i, v)
			}
		}
	}

	// Estimator level: exhaustive sketches are exact counts, so estimates
	// must agree across the relabeling even though the rank hashes differ.
	s1 := mustBuild(t, x1, Options{K: n * ell, Seed: 1})
	s2 := mustBuild(t, x2, Options{K: n * ell, Seed: 2})
	for v := 0; v < n; v++ {
		a, b := s1.EstimateSphereSize(graph.NodeID(v)), s2.EstimateSphereSize(graph.NodeID(perm[v]))
		if a != b {
			t.Fatalf("node %d: estimate %v != relabeled %v", v, a, b)
		}
	}
}
