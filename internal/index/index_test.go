package index

import (
	"bytes"
	"context"
	"runtime"
	"testing"
	"testing/quick"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/worlds"
)

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

func randomGraph(t testing.TB, seed uint64, n, m int) *graph.Graph {
	t.Helper()
	r := rng.New(seed)
	b := graph.NewBuilder(n)
	for i := 0; i < m; i++ {
		u, v := graph.NodeID(r.Intn(n)), graph.NodeID(r.Intn(n))
		if u != v {
			b.AddEdge(u, v, 0.05+0.9*r.Float64())
		}
	}
	return b.MustBuild()
}

func TestBuildRejectsBadOptions(t *testing.T) {
	g := paperGraph(t)
	if _, err := Build(context.Background(), g, Options{Samples: 0}, checkpoint.Config{}); err == nil {
		t.Fatal("accepted Samples=0")
	}
}

func TestBuildDeterministic(t *testing.T) {
	g := randomGraph(t, 1, 80, 300)
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	a, err := Build(context.Background(), g, Options{Samples: 8, Seed: 42}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	runtime.GOMAXPROCS(1)
	b, err := Build(context.Background(), g, Options{Samples: 8, Seed: 42}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sa, sb := a.NewScratch(), b.NewScratch()
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for i := 0; i < a.NumWorlds(); i++ {
			ca := a.Cascade(v, i, sa, nil)
			cb := b.Cascade(v, i, sb, nil)
			if !equal(ca, cb) {
				t.Fatalf("node %d world %d: %v vs %v (worker count changed result)", v, i, ca, cb)
			}
		}
	}
}

// TestCascadeMatchesDirectWorldReachability is the core correctness check:
// the indexed cascade of (v, i) must equal BFS reachability in the
// identically-seeded sampled world.
func TestCascadeMatchesDirectWorldReachability(t *testing.T) {
	g := randomGraph(t, 2, 60, 240)
	const ell = 12
	x, err := Build(context.Background(), g, Options{Samples: ell, Seed: 7}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ws := worlds.SampleMany(g, 7, ell)
	s := x.NewScratch()
	visited := make([]bool, g.NumNodes())
	for i := 0; i < ell; i++ {
		for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
			got := x.Cascade(v, i, s, nil)
			want := ws[i].Reachable(v, visited, nil)
			if !equal(got, want) {
				t.Fatalf("world %d node %d: index %v, direct %v", i, v, got, want)
			}
			if gotSize := x.CascadeSize(v, i, s); gotSize != len(want) {
				t.Fatalf("world %d node %d: CascadeSize %d, want %d", i, v, gotSize, len(want))
			}
		}
	}
}

func TestCascadeFromSetMatchesDirect(t *testing.T) {
	g := randomGraph(t, 3, 50, 200)
	const ell = 8
	x, err := Build(context.Background(), g, Options{Samples: ell, Seed: 11}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	ws := worlds.SampleMany(g, 11, ell)
	s := x.NewScratch()
	visited := make([]bool, g.NumNodes())
	r := rng.New(5)
	for trial := 0; trial < 30; trial++ {
		k := r.Intn(5) + 1
		seeds := make([]graph.NodeID, 0, k)
		for len(seeds) < k {
			seeds = append(seeds, graph.NodeID(r.Intn(g.NumNodes())))
		}
		for i := 0; i < ell; i++ {
			got := x.CascadeFromSet(seeds, i, s, nil)
			want := ws[i].ReachableFromSet(seeds, visited, nil)
			if !equal(got, want) {
				t.Fatalf("seeds %v world %d: %v vs %v", seeds, i, got, want)
			}
			if sz := x.CascadeSizeFromSet(seeds, i, s); sz != len(want) {
				t.Fatalf("seeds %v world %d: size %d, want %d", seeds, i, sz, len(want))
			}
		}
	}
}

func TestCascadesCollection(t *testing.T) {
	g := paperGraph(t)
	x, err := Build(context.Background(), g, Options{Samples: 20, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	s := x.NewScratch()
	all := x.Cascades(4, s)
	if len(all) != 20 {
		t.Fatalf("got %d cascades", len(all))
	}
	for i, c := range all {
		if len(c) == 0 || !contains(c, 4) {
			t.Fatalf("cascade %d missing source: %v", i, c)
		}
	}
}

func TestSerializationRoundTrip(t *testing.T) {
	g := randomGraph(t, 12, 70, 280)
	x, err := Build(context.Background(), g, Options{Samples: 9, Seed: 13}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	y, err := Read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	sx, sy := x.NewScratch(), y.NewScratch()
	for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
		for i := 0; i < x.NumWorlds(); i++ {
			a := x.Cascade(v, i, sx, nil)
			b := y.Cascade(v, i, sy, nil)
			if !equal(a, b) {
				t.Fatalf("node %d world %d: %v vs %v after round trip", v, i, a, b)
			}
		}
	}
}

func TestSerializationRejectsCorruption(t *testing.T) {
	g := randomGraph(t, 14, 30, 90)
	x, err := Build(context.Background(), g, Options{Samples: 3, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	// Bad magic.
	data := append([]byte(nil), buf.Bytes()...)
	data[0] ^= 0xFF
	if _, err := Read(bytes.NewReader(data), g); err == nil {
		t.Fatal("accepted corrupt magic")
	}
	// Wrong graph size.
	other := randomGraph(t, 15, 31, 90)
	if _, err := Read(bytes.NewReader(buf.Bytes()), other); err == nil {
		t.Fatal("accepted mismatched graph")
	}
	// Truncated stream.
	if _, err := Read(bytes.NewReader(buf.Bytes()[:buf.Len()/2]), g); err == nil {
		t.Fatal("accepted truncated stream")
	}
}

func TestSaveLoadFile(t *testing.T) {
	g := randomGraph(t, 16, 25, 80)
	x, err := Build(context.Background(), g, Options{Samples: 4, Seed: 2}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	path := t.TempDir() + "/idx.bin"
	if err := x.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	y, err := LoadFile(path, g)
	if err != nil {
		t.Fatal(err)
	}
	if y.NumWorlds() != 4 {
		t.Fatalf("NumWorlds = %d", y.NumWorlds())
	}
}

func TestQuickIndexMatchesWorlds(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 3
		g := randomGraph(t, seed^0xABCD, n, 4*n)
		const ell = 5
		x, err := Build(context.Background(), g, Options{Samples: ell, Seed: seed}, checkpoint.Config{})
		if err != nil {
			return false
		}
		ws := worlds.SampleMany(g, seed, ell)
		s := x.NewScratch()
		visited := make([]bool, g.NumNodes())
		for i := 0; i < ell; i++ {
			v := graph.NodeID(r.Intn(g.NumNodes()))
			if !equal(x.Cascade(v, i, s, nil), ws[i].Reachable(v, visited, nil)) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Fatal(err)
	}
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

func contains(s []graph.NodeID, v graph.NodeID) bool {
	for _, x := range s {
		if x == v {
			return true
		}
	}
	return false
}

func BenchmarkBuild1000Worlds(b *testing.B) {
	g := randomGraph(b, 1, 2000, 10000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := Build(context.Background(), g, Options{Samples: 1000, Seed: 1}, checkpoint.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCascadeExtraction(b *testing.B) {
	g := randomGraph(b, 2, 2000, 10000)
	x, err := Build(context.Background(), g, Options{Samples: 64, Seed: 1}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	s := x.NewScratch()
	var buf []graph.NodeID
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buf = x.Cascade(graph.NodeID(i%2000), i%64, s, buf[:0])
	}
}

// TestPackedWidths round-trips a packed array at every width from 0 to 32
// bits: values at the width's extremes and in between, read one by one and
// as offset pairs, starting past other bytes of the buffer and ending on a
// buffer sized as newWorldEntry sizes one, so the last element and the last
// pair are read with their loads reaching into the tail padding. The
// neighbouring bytes keep their values.
func TestPackedWidths(t *testing.T) {
	r := rng.New(191)
	for width := 0; width <= 32; width++ {
		for _, count := range []int{1, 2, 37, 64} {
			const at = 3
			size := at + (count*width+7)/8
			buf := make([]byte, size+tailPad)
			for k := range buf[:at] {
				buf[k] = 0xA5
			}
			p := packed{b: buf[at:], width: uint32(width), mask: 1<<width - 1}
			want := make([]int, count)
			for i := range want {
				switch i % 3 {
				case 0:
					want[i] = int(p.mask)
				case 1:
					want[i] = int(r.Uint64() & uint64(p.mask))
				}
				p.set(i, uint32(want[i]))
			}
			for i, v := range want {
				if got := int(uint32(p.get(i))); got != v {
					t.Fatalf("width %d, count %d: element %d = %d, want %d", width, count, i, got, v)
				}
				if i+1 < count {
					if lo, hi := p.pair(i); uint32(lo) != uint32(v) || uint32(hi) != uint32(want[i+1]) {
						t.Fatalf("width %d, count %d: pair %d = (%d, %d), want (%d, %d)", width, count, i, lo, hi, v, want[i+1])
					}
				}
			}
			for k, b := range buf[:at] {
				if b != 0xA5 {
					t.Fatalf("width %d: byte %d before the array changed to %#x", width, k, b)
				}
			}
			if !bytes.Equal(buf[size:], make([]byte, tailPad)) {
				t.Fatalf("width %d, count %d: tail padding written: % x", width, count, buf[size:])
			}
		}
	}
}
