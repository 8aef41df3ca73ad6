package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"path/filepath"
	"reflect"
	"slices"
	"strconv"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// cycleAndPath is a graph of n nodes whose every sampled world, under IC
// and under LT, has exactly comps components: a certain cycle over the
// first n-comps+1 nodes (one component) feeding a certain path over the
// rest (one singleton each). Every node has one in-edge of probability 1,
// so an LT world keeps it too.
func cycleAndPath(t testing.TB, n, comps int) *graph.Graph {
	t.Helper()
	m := n - comps + 1 // cycle length
	b := graph.NewBuilder(n)
	for v := 0; v < m; v++ {
		b.AddEdge(graph.NodeID(v), graph.NodeID((v+1)%m), 1)
	}
	for v := m; v < n; v++ {
		b.AddEdge(graph.NodeID(v-1), graph.NodeID(v), 1)
	}
	return b.MustBuild()
}

// TestRecordRoundTrip: a world record decodes to exactly the worldEntry it
// was encoded from, every packed CSR array included, and equals the
// reference encoding of its unpacked arrays, under IC and LT, at the
// packing widths' edges: one component (zero-bit ids), 2^k components (ids
// fill k bits) and 2^k+1 (one bit more), and over random graphs whose
// worlds mix condensation edges of every direction.
func TestRecordRoundTrip(t *testing.T) {
	type fixture struct {
		name  string
		g     *graph.Graph
		comps int // 0: whatever the worlds have
	}
	var fixtures []fixture
	for _, comps := range []int{1, 2, 3, 4, 5, 8, 9, 256, 257} {
		fixtures = append(fixtures, fixture{"comps=" + strconv.Itoa(comps), cycleAndPath(t, 300, comps), comps})
	}
	// Weighted-cascade probabilities are a valid LT weighting.
	fixtures = append(fixtures, fixture{"random", wcGraph(t, 171, 60, 200), 0})
	for _, fx := range fixtures {
		for _, model := range []Model{IC, LT} {
			t.Run(fx.name+"/"+model.String(), func(t *testing.T) {
				g := fx.g
				x, err := Build(context.Background(), g, Options{Samples: 4, Seed: 173, Model: model}, checkpoint.Config{})
				if err != nil {
					t.Fatal(err)
				}
				for i := range x.entries {
					e := &x.entries[i]
					if fx.comps != 0 && e.numComps() != fx.comps {
						t.Fatalf("world %d has %d components, fixture wants %d", i, e.numComps(), fx.comps)
					}
					rec := appendEntry([]byte{0xAA}, e)[1:] // appends, keeping dst
					if want := minRecord(e.nodes, uint32(e.numComps())); uint64(len(rec)) < want {
						t.Fatalf("world %d: %d-byte record under CheckEntry's minimum %d", i, len(rec), want)
					}
					if ref := unpack(e).appendRecord(nil); !bytes.Equal(rec, ref) {
						t.Fatalf("world %d: record differs from the reference encoding of its arrays", i)
					}
					var got worldEntry
					n, err := decodeEntry(append(rec, 0xFF), uint32(g.NumNodes()), i, &got, new([]int32))
					if err != nil {
						t.Fatalf("world %d: %v", i, err)
					}
					if n != len(rec) {
						t.Fatalf("world %d: decode consumed %d of %d bytes", i, n, len(rec))
					}
					if !reflect.DeepEqual(&got, e) {
						t.Fatalf("world %d decodes to a different entry", i)
					}
				}
			})
		}
	}
}

// rawWorld is a world's arrays unpacked to int32, the form forged records
// are edited in: comps components, node -> component map comp, and the
// successor CSR succOff/succ.
type rawWorld struct {
	comps         uint32
	comp          []int32
	succOff, succ []int32
}

// unpack reads e's packed arrays into a rawWorld.
func unpack(e *worldEntry) rawWorld {
	w := rawWorld{comps: e.ncomps, comp: make([]int32, e.nodes), succOff: make([]int32, e.ncomps+1)}
	for v := range w.comp {
		w.comp[v] = e.comp.get(v)
	}
	for c := range w.succOff {
		w.succOff[c] = e.succOff.get(c)
	}
	w.succ = make([]int32, w.succOff[e.ncomps])
	for j := range w.succ {
		w.succ[j] = e.succ.get(j)
	}
	return w
}

// succs returns component c's successors.
func (w rawWorld) succs(c int32) []int32 { return w.succ[w.succOff[c]:w.succOff[c+1]] }

// appendRecord is the reference SOIIDX05 record encoder over unpacked
// arrays, written from the format's description: it encodes whatever the
// arrays hold, so an edited rawWorld becomes a forged record.
func (w rawWorld) appendRecord(dst []byte) []byte {
	dst = binary.AppendUvarint(dst, uint64(w.comps))
	dst = binary.AppendUvarint(dst, uint64(len(w.succ)))
	width := compBits(w.comps)
	packed := make([]byte, packedLen(uint32(len(w.comp)), w.comps))
	for v, c := range w.comp {
		for b := uint(0); b < width; b++ {
			if bit := uint(v)*width + b; uint32(c)>>b&1 != 0 {
				packed[bit/8] |= 1 << (bit % 8)
			}
		}
	}
	dst = append(dst, packed...)
	for c := int32(0); c < int32(w.comps); c++ {
		dst = binary.AppendUvarint(dst, uint64(len(w.succs(c))))
		prev := c
		for _, d := range w.succs(c) {
			dst = binary.AppendUvarint(dst, zigzag(int64(d)-int64(prev)))
			prev = d
		}
	}
	return dst
}

// forgedRecords returns world records derived from e that only the record
// decoder can refuse, each named for what it forges. e needs a condensation
// edge and a component count that is not a power of two.
func forgedRecords(t testing.TB, e *worldEntry) map[string][]byte {
	t.Helper()
	raw := unpack(e)
	comps := raw.comps
	if comps&(comps-1) == 0 || len(raw.succ) == 0 {
		t.Fatalf("fixture world has %d components and %d successors: need a non-power-of-two count and an edge", comps, len(raw.succ))
	}
	clean := appendEntry(nil, e)
	_, countsLen := binary.Uvarint(clean)
	_, n := binary.Uvarint(clean[countsLen:])
	countsLen += n
	// with encodes a copy of e's arrays changed by edit.
	with := func(edit func(c *rawWorld)) []byte {
		c := rawWorld{comps: comps, comp: slices.Clone(raw.comp), succOff: raw.succOff, succ: slices.Clone(raw.succ)}
		edit(&c)
		return c.appendRecord(nil)
	}
	counts := func(comps, total uint64) []byte {
		return append(binary.AppendUvarint(binary.AppendUvarint(nil, comps), total), clean[countsLen:]...)
	}
	forged := map[string][]byte{
		"successor total one more":  counts(uint64(comps), uint64(len(raw.succ))+1),
		"successor total one less":  counts(uint64(comps), uint64(len(raw.succ))-1),
		"successor total forged":    counts(uint64(comps), 1<<31-1),
		"overlong component count":  overlong(comps, clean[varintLen(comps):]),
		"packed comp >= comps":      with(func(c *rawWorld) { c.comp[len(c.comp)-1] = int32(comps) }),
		"successor delta below 0":   with(func(c *rawWorld) { c.succ[0] = -1 }),
		"successor delta >= comps":  with(func(c *rawWorld) { c.succ[0] = int32(comps) }),
		"degree overruns the total": counts(uint64(comps), 0),
		// Component 0 claims comps+1 successors, all in range (itself),
		// under a total that covers them.
		"degree > comps": with(func(c *rawWorld) {
			d0 := c.succOff[1]
			c.succ = append(make([]int32, comps+1), c.succ[d0:]...)
			c.succOff = slices.Clone(c.succOff)
			for k := 1; k < len(c.succOff); k++ {
				c.succOff[k] += int32(comps+1) - d0
			}
		}),
	}
	// The packed ids' last byte has padding bits unless they fill it.
	if nodes := uint32(len(raw.comp)); uint64(nodes)*uint64(compBits(comps))%8 != 0 {
		d := append([]byte(nil), clean...)
		d[countsLen+int(packedLen(nodes, comps))-1] |= 0x80
		forged["nonzero padding"] = d
	}
	return forged
}

// forgeable returns the first world of x that forgedRecords can forge.
func forgeable(t testing.TB, x *Index) int {
	t.Helper()
	for i := range x.entries {
		e := &x.entries[i]
		if c := e.numComps(); c&(c-1) != 0 && e.succOff.get(c) > 0 {
			return i
		}
	}
	t.Fatal("no world has a non-power-of-two component count and a condensation edge")
	return -1
}

// overlong prefixes rest with a non-minimal encoding of v: the canonical
// bytes with a continuation bit set on the last and a zero byte after it.
func overlong(v uint32, rest []byte) []byte {
	b := binary.AppendUvarint(nil, uint64(v))
	b[len(b)-1] |= 0x80
	return append(append(b, 0x00), rest...)
}

// TestForgedRecordsRejected: each forged record, the fuzzers' seeds, is
// refused by the decoder on its own and inside an otherwise consistent
// file, over the fuzzers' fixture and one whose ids leave padding bits.
func TestForgedRecordsRejected(t *testing.T) {
	for _, n := range []int{12, 13} {
		g := randomGraph(t, 161, n, 40)
		x, err := Build(context.Background(), g, Options{Samples: 4, Seed: 162}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		forged := forgedRecords(t, &x.entries[0])
		if _, ok := forged["nonzero padding"]; !ok && n == 13 {
			t.Fatal("13-node fixture has no padding bits to forge")
		}
		for why, rec := range forged {
			if k, err := decodeEntry(rec, uint32(n), 0, new(worldEntry), new([]int32)); err == nil && k == len(rec) {
				t.Errorf("%d nodes, %s: decoded", n, why)
			}
			if _, err := Read(bytes.NewReader(forgeFile(t, x, 0, rec)), g); !errors.Is(err, blockfile.ErrCorrupt) {
				t.Errorf("%d nodes, %s: Read err = %v, want ErrCorrupt", n, why, err)
			}
		}
	}
}

// forgeFile returns x's file with world i's record replaced by rec under a
// consistent directory, directory checksum and footer, so only the record
// decoder stands between rec and a query.
func forgeFile(t testing.TB, x *Index, world int, rec []byte) []byte {
	t.Helper()
	meta := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, x.graphFP), uint32(x.model))
	var buf bytes.Buffer
	if _, _, err := FileKind.Write(&buf, uint32(x.g.NumNodes()), meta, x.NumWorlds(), func(buf []byte, i int) ([]byte, uint32) {
		if i == world {
			return append(buf, rec...), uint32(x.entries[i].numComps())
		}
		return appendEntry(buf, &x.entries[i]), uint32(x.entries[i].numComps())
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// appendEntryV4 is the SOIIDX04 world record: fixed-width words.
func appendEntryV4(dst []byte, e *worldEntry) []byte {
	le := binary.LittleEndian
	w := unpack(e)
	dst = le.AppendUint32(dst, w.comps)
	for _, c := range w.comp {
		dst = le.AppendUint32(dst, uint32(c))
	}
	for c := int32(0); c < int32(w.comps); c++ {
		dst = le.AppendUint32(dst, uint32(len(w.succs(c))))
		for _, d := range w.succs(c) {
			dst = le.AppendUint32(dst, uint32(d))
		}
	}
	return dst
}

// TestBuildCheckpointOfOldRecordsIsStale: a build checkpoint written before
// the record format changed — keyed as it was then and holding SOIIDX04
// records — is stale, so the build restarts it (cliutil.RetryStale) rather
// than feeding its payload to the SOIIDX05 decoder.
func TestBuildCheckpointOfOldRecordsIsStale(t *testing.T) {
	g := randomGraph(t, 181, 30, 90)
	opts := Options{Samples: 4, Seed: 182}
	x, err := Build(context.Background(), g, opts, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	oldKey := checkpoint.NewHasher().String("index.Build").Graph(g).Int(opts.Samples).Uint64(opts.Seed).Int(int(opts.Model)).Sum()
	if oldKey == BuildFingerprint(g, opts) {
		t.Fatal("BuildFingerprint does not name the record format")
	}
	done := checkpoint.NewBitmap(opts.Samples)
	done.Set(1)
	payload := appendEntryV4(binary.LittleEndian.AppendUint32(nil, 1), &x.entries[1])
	path := filepath.Join(t.TempDir(), "build.ckpt")
	if err := checkpoint.Save(path, oldKey, done, payload); err != nil {
		t.Fatal(err)
	}
	if _, err := Build(context.Background(), g, opts, checkpoint.Config{Path: path}); !errors.Is(err, checkpoint.ErrStale) {
		t.Fatalf("Build over an SOIIDX04 checkpoint: err = %v, want ErrStale", err)
	}
}
