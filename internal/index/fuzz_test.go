package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// FuzzRead fuzzes the eager deserializer on its own, from one clean file:
// Read must never panic or allocate unboundedly, and anything it accepts
// must answer queries, write back out, and read back to the same cascades.
func FuzzRead(f *testing.F) {
	g := randomGraph(f, 141, 12, 40)
	x, err := Build(context.Background(), g, Options{Samples: 2, Seed: 142}, checkpoint.Config{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	f.Add(buf.Bytes())
	f.Fuzz(func(t *testing.T, data []byte) {
		idx, err := Read(bytes.NewReader(data), g)
		if err != nil {
			return
		}
		var out bytes.Buffer
		if _, err := idx.WriteTo(&out); err != nil {
			t.Fatalf("accepted index does not write back: %v", err)
		}
		back, err := Read(&out, g)
		if err != nil {
			t.Fatalf("written-back index does not read: %v", err)
		}
		if back.NumWorlds() != idx.NumWorlds() {
			t.Fatalf("worlds: read back %d, accepted %d", back.NumWorlds(), idx.NumWorlds())
		}
		s, sb := idx.NewScratch(), back.NewScratch()
		for i := 0; i < idx.NumWorlds(); i++ {
			_ = idx.Cascade(0, i, s, nil)
			for v := graph.NodeID(0); int(v) < g.NumNodes(); v++ {
				if a, b := idx.CascadeSize(v, i, s), back.CascadeSize(v, i, sb); a != b {
					t.Fatalf("world %d node %d: cascade %d, read back %d", i, v, a, b)
				}
			}
		}
	})
}

// FuzzReadV03 feeds arbitrary bytes to both index readers, the strict
// eager Read and the lazy OpenMmap loader: the seed corpus mutates the
// directory (offsets, lengths, CRCs, comps), not just the payload. Neither
// may panic or allocate unboundedly; anything Read accepts must answer
// queries, and whatever OpenMmap accepts must answer queries with every
// world either served or quarantined.
func FuzzReadV03(f *testing.F) {
	g := randomGraph(f, 151, 12, 40)
	x, err := Build(context.Background(), g, Options{Samples: 3, Seed: 152}, checkpoint.Config{})
	if err != nil {
		f.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	mutate := func(pos int, val byte) {
		if pos < len(clean) {
			d := append([]byte(nil), clean...)
			d[pos] ^= val
			f.Add(d)
		}
	}
	// One seed per directory field of world 1 (offset, length, CRC, comps),
	// plus the directory CRC, a block byte, and the footer.
	dirBase := v3HeaderLen + blockfile.EntrySize
	mutate(dirBase+0, 0x01)                         // off
	mutate(dirBase+8, 0x01)                         // len
	mutate(dirBase+12, 0x01)                        // crc
	mutate(dirBase+16, 0x01)                        // comps
	mutate(v3HeaderLen+3*blockfile.EntrySize, 0xFF) // directory CRC word
	mutate(int(v3BlocksStart(3))+5, 0xFF)           // first block's bytes
	mutate(len(clean)-1, 0xFF)                      // whole-file footer
	f.Add(clean[:v3HeaderLen])                      // truncated at directory
	f.Add(clean[:int(v3BlocksStart(3))+1])          // truncated mid-block
	f.Add(append(append([]byte(nil), clean...), 0)) // trailing byte
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	f.Add(magicV3[:])         // magic only
	f.Add([]byte("SOISPH02")) // another artifact's magic
	f.Fuzz(func(t *testing.T, data []byte) {
		if idx, err := Read(bytes.NewReader(data), g); err == nil {
			s := idx.NewScratch()
			for i := 0; i < idx.NumWorlds(); i++ {
				_ = idx.Cascade(0, i, s, nil)
				_ = idx.CascadeSize(0, i, s)
			}
		}
		p := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		idx, err := OpenMmap(p, g, MmapOptions{})
		if err != nil {
			return
		}
		defer idx.Close()
		s := idx.NewScratch()
		for i := 0; i < idx.NumWorlds(); i++ {
			_ = idx.Cascade(0, i, s, nil)
			_ = idx.CascadeSize(0, i, s)
		}
		if live, quar := idx.LiveWorlds(), idx.QuarantinedWorlds(); live+quar != idx.NumWorlds() {
			t.Fatalf("live %d + quarantined %d != worlds %d", live, quar, idx.NumWorlds())
		}
	})
}

// FuzzBuildPayload fuzzes the decoder of Build's checkpoint payload, which
// has no block directory or per-block CRC in front of it to vouch for the
// counts. decodeBuildPayload must never panic or allocate unboundedly, and
// any payload it accepts must re-encode to exactly the same bytes.
func FuzzBuildPayload(f *testing.F) {
	g := randomGraph(f, 161, 12, 40)
	nodes := g.NumNodes()
	x, err := Build(context.Background(), g, Options{Samples: 4, Seed: 162}, checkpoint.Config{})
	if err != nil {
		f.Fatal(err)
	}
	done := checkpoint.NewBitmap(4)
	done.Set(0)
	done.Set(2)
	clean, err := x.encodeWorlds(done)
	if err != nil {
		f.Fatal(err)
	}
	// World 0's record starts after its 4-byte id; its first degree word
	// follows the comps word and the comp array.
	e0 := &x.entries[0]
	firstDeg := 4 + 4 + 4*nodes
	c := 0
	for c < e0.numComps() && e0.succOff[c+1] == e0.succOff[c] {
		c++
	}
	if c == e0.numComps() {
		f.Fatal("fixture world 0 has no condensation edge to corrupt")
	}
	succPos := firstDeg + 4*(c+int(e0.succOff[c])) + 4 // component c's first successor
	with := func(pos int, v uint32) []byte {
		d := append([]byte(nil), clean...)
		binary.LittleEndian.PutUint32(d[pos:], v)
		return d
	}
	decode := func(data []byte) ([]worldEntry, error) {
		entries := make([]worldEntry, 4)
		return entries, decodeBuildPayload(&checkpoint.State{Done: done, Payload: data}, uint32(nodes), entries)
	}
	// Each corrupt seed must be rejected for the reason it names.
	bad := func(why string, data []byte) {
		if _, err := decode(data); err == nil {
			f.Fatalf("%s: accepted", why)
		}
		f.Add(data)
	}
	comps := uint32(e0.numComps())
	f.Add(clean)
	bad("truncated id", append(append([]byte(nil), clean...), 1, 0))
	bad("id outside the done bitmap", with(0, 1))
	bad("truncated entry", clean[:firstDeg+2])
	bad("degree > comps", with(firstDeg, comps+1))
	bad("successor out of range", with(succPos, comps))
	bad("empty payload for two done worlds", []byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		entries, err := decode(data)
		if err != nil {
			return
		}
		back, err := (&Index{g: g, entries: entries}).encodeWorlds(done)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(back, data) {
			t.Fatalf("accepted payload of %d bytes re-encodes to %d different bytes", len(data), len(back))
		}
	})
}
