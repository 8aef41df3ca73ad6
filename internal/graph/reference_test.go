package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"testing"

	"soi/internal/rng"
)

// refReadTSV is the line-scanner loader the byte parser replaced, kept
// verbatim (apart from building through refBuild) as the reference the
// parser must match bit for bit.
func refReadTSV(r io.Reader) (*Graph, []int64, error) {
	b := NewBuilder(0)
	remap := make(map[int64]NodeID)
	var orig []int64
	intern := func(raw int64) NodeID {
		if id, ok := remap[raw]; ok {
			return id
		}
		id := NodeID(len(orig))
		remap[raw] = id
		orig = append(orig, raw)
		return id
	}

	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := strings.TrimSpace(sc.Text())
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) == 1 {
			id, err := strconv.ParseInt(fields[0], 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad node id: %v", lineNo, err)
			}
			b.EnsureNode(intern(id))
			continue
		}
		if len(fields) != 3 {
			return nil, nil, fmt.Errorf("graph: line %d: want 1 or 3 fields, got %d", lineNo, len(fields))
		}
		from, err := strconv.ParseInt(fields[0], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad source id: %v", lineNo, err)
		}
		to, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad target id: %v", lineNo, err)
		}
		p, err := strconv.ParseFloat(fields[2], 64)
		if err != nil {
			return nil, nil, fmt.Errorf("graph: line %d: bad probability: %v", lineNo, err)
		}
		b.AddEdge(intern(from), intern(to), p)
	}
	if err := sc.Err(); err != nil {
		return nil, nil, fmt.Errorf("graph: read: %w", err)
	}
	g, err := refBuild(b)
	if err != nil {
		return nil, nil, err
	}
	return g, orig, nil
}

// refBuild is the sort.Slice Builder.Build the counting layout replaced,
// kept verbatim. It accepts NaN probabilities, which Build now rejects.
func refBuild(b *Builder) (*Graph, error) {
	for _, e := range b.edges {
		if e.From < 0 || e.To < 0 {
			return nil, fmt.Errorf("graph: negative node id in edge (%d,%d)", e.From, e.To)
		}
		if e.From == e.To {
			return nil, fmt.Errorf("graph: self-loop on node %d", e.From)
		}
		if e.Prob <= 0 || e.Prob > 1 {
			return nil, fmt.Errorf("graph: edge (%d,%d) has probability %v outside (0,1]", e.From, e.To, e.Prob)
		}
	}
	sort.Slice(b.edges, func(i, j int) bool {
		if b.edges[i].From != b.edges[j].From {
			return b.edges[i].From < b.edges[j].From
		}
		return b.edges[i].To < b.edges[j].To
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

// sameGraph reports how two graphs differ, "" when their CSR arrays are
// identical bit for bit.
func sameGraph(a, b *Graph) string {
	if a.n != b.n {
		return fmt.Sprintf("n %d vs %d", a.n, b.n)
	}
	if !slicesEqual(a.offsets, b.offsets) {
		return fmt.Sprintf("offsets %v vs %v", a.offsets, b.offsets)
	}
	if !slicesEqual(a.adj, b.adj) {
		return fmt.Sprintf("adj %v vs %v", a.adj, b.adj)
	}
	if len(a.probs) != len(b.probs) {
		return fmt.Sprintf("%d vs %d probabilities", len(a.probs), len(b.probs))
	}
	for i := range a.probs {
		if math.Float64bits(a.probs[i]) != math.Float64bits(b.probs[i]) {
			return fmt.Sprintf("probs[%d] %v vs %v", i, a.probs[i], b.probs[i])
		}
	}
	return ""
}

func slicesEqual[T comparable](a, b []T) bool {
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

// hasNaNProb reports whether the reference accepted a NaN probability.
func hasNaNProb(g *Graph) bool {
	for _, p := range g.probs {
		if math.IsNaN(p) {
			return true
		}
	}
	return false
}

// checkReadTSV asserts that ReadTSV and LoadFile agree with the reference on
// input: the same error text, or identical CSR bits and original ids. The
// one intended difference is a NaN probability, which only the reference
// accepts.
func checkReadTSV(t *testing.T, input string, viaFile bool) {
	t.Helper()
	want, wantOrig, wantErr := refReadTSV(strings.NewReader(input))
	got, gotOrig, gotErr := ReadTSV(strings.NewReader(input))
	if viaFile {
		p := filepath.Join(t.TempDir(), "g.tsv")
		if err := os.WriteFile(p, []byte(input), 0o644); err != nil {
			t.Fatal(err)
		}
		fg, forig, ferr := LoadFile(p)
		if fmt.Sprint(ferr) != fmt.Sprint(gotErr) {
			t.Fatalf("%q: LoadFile error %v, ReadTSV error %v", input, ferr, gotErr)
		}
		if ferr == nil && (sameGraph(fg, got) != "" || !slicesEqual(forig, gotOrig)) {
			t.Fatalf("%q: LoadFile and ReadTSV disagree", input)
		}
	}
	if wantErr == nil && hasNaNProb(want) {
		if gotErr == nil || !strings.Contains(gotErr.Error(), "probability NaN outside (0,1]") {
			t.Fatalf("%q: NaN probability accepted: err %v", input, gotErr)
		}
		return
	}
	if fmt.Sprint(gotErr) != fmt.Sprint(wantErr) {
		t.Fatalf("%q: error %q, reference %q", input, fmt.Sprint(gotErr), fmt.Sprint(wantErr))
	}
	if wantErr != nil {
		return
	}
	if d := sameGraph(got, want); d != "" {
		t.Fatalf("%q: graph differs from reference: %s", input, d)
	}
	if !slicesEqual(gotOrig, wantOrig) {
		t.Fatalf("%q: original ids %v, reference %v", input, gotOrig, wantOrig)
	}
}

func TestReadTSVMatchesReference(t *testing.T) {
	for _, in := range []string{
		"",
		"\n\n",
		"1 2 0.5\n2 3 0.25\n",
		"1 2 0.5\r\n2 3 0.25\r\n",          // CRLF
		"1 2 0.5\r\n2 3 0.25",              // CRLF, last line unterminated
		"1\t2 \t 0.5\n \t2\t\t3  0.25\t\n", // mixed tabs and spaces
		"1\u00a02\u00a00.5\n",              // U+00A0 separates fields
		"1\u00852 0.5\n",                   // U+0085 separates fields
		"\u00a01 2 0.5\u0085\n",            // and is trimmed at the ends
		"1 2\u2003 0.5\n",                  // U+2003 EM SPACE
		"1 2 0.5\xff\n",                    // invalid UTF-8 byte in a field
		"1 2 0.5 \xa0\n",                   // lone 0xA0 byte: not whitespace
		"# comment\n\n10\t20\t1\n",
		"  # indented comment\n5 6 1\n",
		"#\n#1 2 3\n7\n",
		"5 6 0.5 # trailing comment\n", // four fields
		"42\n",                         // single-field node line
		"42\n7 42 0.5\n9\n",
		"1000000000000 3 0.5\n3 -7 0.25\n", // ids outside the table's range
		"1 2\n",
		"a 2 0.5\n",
		"1 b 0.5\n",
		"1 2 x\n",
		"1 2 0.5 extra\n",
		"x\n",
		"9999999999999999999 2 0.5\n",
		"1 2 0\n",
		"1 1 0.5\n",
		"1 2 -0.5\n",
		"1 2 1.5\n",
		"1 2 +Inf\n",
		"1 2 1e309\n",
		"1 2 1e-300\n",
		"1 2 NaN\n",
		"1 2 nan\n2 3 0.5\n",
		"1 2 0x1p-2\n",
		"1 2 0.5\n1 2 0.7\n",
		"1 2 0.1\n3 4 0.5\n1 2 0.3\n2 1 0.4\n1 2 0.7\n1 2 0.9\n", // one pair four times
		"4 1 0.5\n4 3 0.5\n4 2 0.5\n4 0 0.5\n",                   // unsorted row
	} {
		checkReadTSV(t, in, true)
	}
}

// TestReadTSVLineLimit pins the longest accepted line: 16 MiB including the
// newline, as the scanner the parser replaced allowed.
func TestReadTSVLineLimit(t *testing.T) {
	if testing.Short() {
		t.Skip("builds 16 MiB lines")
	}
	for _, pad := range []int{maxLine - len("1 2 0.5"), maxLine + 1 - len("1 2 0.5")} {
		line := "1 2 0.5" + strings.Repeat(" ", pad)
		checkReadTSV(t, "3 4 0.5\n"+line+"\n", false)
		checkReadTSV(t, line, false)
		checkReadTSV(t, "1 x 0.5\n"+line+"\n", false)
	}
}

// randomEdgeList returns an edge list with few distinct endpoints, so pairs
// repeat often and rows arrive unsorted, plus occasional comments, node
// lines, CRLF endings and long rows.
func randomEdgeList(r *rng.PCG32) string {
	var sb strings.Builder
	nodes := 2 + r.Intn(12)
	lines := r.Intn(200)
	if r.Intn(8) == 0 {
		nodes, lines = 300, 2000 // long rows, which pdqsort partitions
	}
	for i := 0; i < lines; i++ {
		switch r.Intn(20) {
		case 0:
			sb.WriteString("# note\n")
		case 1:
			fmt.Fprintf(&sb, "%d\n", r.Intn(nodes)*7)
		default:
			from, to := r.Intn(nodes)*7, r.Intn(nodes)*7
			if from == to {
				continue
			}
			if nodes == 300 {
				from %= 14
			}
			fmt.Fprintf(&sb, "%d\t%d %v", from, to, (float64(r.Intn(1000))+1)/1000)
			if r.Intn(4) == 0 {
				sb.WriteByte('\r')
			}
			sb.WriteByte('\n')
		}
	}
	return sb.String()
}

func TestReadTSVMatchesReferenceRandom(t *testing.T) {
	r := rng.New(20260417)
	for i := 0; i < 2000; i++ {
		checkReadTSV(t, randomEdgeList(r), false)
	}
}

// TestBuildMatchesReference drives Build directly with heavily duplicated
// edges in random order, where Build must fold each pair's probabilities
// in exactly the order sort.Slice left them, and with long shuffled rows
// of distinct targets.
func TestBuildMatchesReference(t *testing.T) {
	r := rng.New(99)
	prob := func() float64 { return r.Float64()*0.999 + 0.001 }
	for trial := 0; trial < 2000; trial++ {
		n := 2 + r.Intn(10)
		var edges []Edge
		for i := r.Intn(300); i > 0; i-- {
			u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
			if u != v {
				edges = append(edges, Edge{From: u, To: v, Prob: prob()})
			}
		}
		if trial%4 == 0 {
			n = 100 + r.Intn(100)
			edges = edges[:0]
			for u := 0; u < 3; u++ {
				for _, v := range r.Perm(n) {
					if v != u {
						edges = append(edges, Edge{From: NodeID(u), To: NodeID(v), Prob: prob()})
					}
				}
			}
			if trial%8 == 0 {
				edges = append(edges, edges[r.Intn(len(edges))])
			}
		}
		got, err := FromEdges(n, edges)
		if err != nil {
			t.Fatal(err)
		}
		ref := NewBuilder(n)
		ref.edges = append(ref.edges, edges...)
		want, err := refBuild(ref)
		if err != nil {
			t.Fatal(err)
		}
		if d := sameGraph(got, want); d != "" {
			t.Fatalf("trial %d: %s", trial, d)
		}
	}
}

func TestNaNProbabilityRejected(t *testing.T) {
	if _, _, err := ReadTSV(strings.NewReader("1 2 NaN\n")); err == nil {
		t.Error("ReadTSV accepted a NaN probability")
	}
	b := NewBuilder(2)
	b.AddEdge(0, 1, math.NaN())
	if _, err := b.Build(); err == nil {
		t.Error("Build accepted a NaN probability")
	}
	g := paperGraph(t)
	if _, err := g.WithProbs(func(u, v NodeID, old float64) float64 { return math.NaN() }); err == nil {
		t.Error("WithProbs accepted a NaN probability")
	}
	bad := &Graph{n: g.n, offsets: g.offsets, adj: g.adj, probs: append([]float64(nil), g.probs...)}
	bad.probs[len(bad.probs)-1] = math.NaN()
	if err := bad.Validate(); err == nil {
		t.Error("Validate accepted a NaN probability")
	}
}

// BenchmarkReadTSV parses a written edge list of ~100k edges over 20k nodes
// with sparse original ids, the shape of a partitioner shard.
func BenchmarkReadTSV(b *testing.B) {
	r := rng.New(5)
	const n, m = 20000, 100000
	bld := NewBuilder(n)
	for bld.n < n || len(bld.edges) < m {
		u, v := NodeID(r.Intn(n)), NodeID(r.Intn(n))
		if u != v {
			bld.AddEdge(u, v, 0.01+0.5*r.Float64())
		}
	}
	g := bld.MustBuild()
	orig := make([]int64, n)
	for i := range orig {
		orig[i] = int64(2*i + 1)
	}
	var buf bytes.Buffer
	if err := WriteTSV(&buf, g, orig); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.SetBytes(int64(len(data)))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, _, err := ReadTSV(bytes.NewReader(data)); err != nil {
			b.Fatal(err)
		}
	}
}
