package sketch

import (
	"bytes"
	"encoding/binary"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/graph"
)

// FuzzReadSketch feeds arbitrary bytes to the SOISKC02 reader: it must
// never panic or allocate unboundedly, and anything it accepts must be
// structurally sound — offsets monotone and in range, per-node rank lists
// strictly ascending and at most k long — so estimates computed from it
// cannot crash or silently drift. The seed corpus mutates every header and
// meta field, the directory, a node-range block's counts and ranks, and the
// checksum footer, mirroring the v03 index fuzz harness.
func FuzzReadSketch(f *testing.F) {
	s := testSketch(f)
	var buf bytes.Buffer
	if _, err := s.WriteTo(&buf); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	mutate := func(pos int64, val byte) {
		if pos < int64(len(clean)) {
			d := append([]byte(nil), clean...)
			d[pos] ^= val
			f.Add(d)
		}
	}
	meta := FileKind.HeaderLen() - int64(FileKind.Meta)
	block := FileKind.BlocksStart(1)
	mutate(0, 0x01)                       // magic
	mutate(8, 0x01)                       // nodes
	mutate(12, 0x01)                      // blocks
	mutate(meta, 0xFF)                    // worlds
	mutate(meta+4, 0xFF)                  // live
	mutate(meta+8, 0x01)                  // k
	mutate(meta+12, 0xFF)                 // seed
	mutate(meta+20, 0xFF)                 // index fingerprint
	mutate(FileKind.HeaderLen()+8, 0x01)  // directory: block length
	mutate(FileKind.HeaderLen()+16, 0x01) // directory: rank count
	mutate(block-4, 0xFF)                 // directory CRC
	mutate(block+4, 0x01)                 // a node's rank count
	mutate(int64(len(clean))/2, 0xFF)     // a rank byte
	mutate(int64(len(clean))-1, 0xFF)     // checksum footer
	f.Add(clean[:40])                     // truncated in the meta
	f.Add(clean[:len(clean)-4])
	f.Add(append(append([]byte(nil), clean...), 0)) // trailing byte
	f.Add([]byte("SOISKC02"))
	f.Add([]byte{})
	f.Add(bytes.Repeat([]byte{0xFF}, 64))
	// A clean sketch in the retired SOISKC01 format: magic, four counts,
	// seed, fingerprint, CSR offsets, ranks, CRC32-C footer.
	le := binary.LittleEndian
	old := []byte("SOISKC01")
	for _, u := range []int{s.nodes, s.worlds, s.live, s.k} {
		old = le.AppendUint32(old, uint32(u))
	}
	old = le.AppendUint64(le.AppendUint64(old, s.seed), s.fp)
	for _, o := range s.off {
		old = le.AppendUint32(old, uint32(o))
	}
	for _, rk := range s.ranks {
		old = le.AppendUint64(old, rk)
	}
	f.Add(le.AppendUint32(old, blockfile.Checksum(old)))
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Read(bytes.NewReader(data))
		if err != nil {
			return
		}
		if s.K() < 2 {
			t.Fatalf("accepted sketch with k=%d", s.K())
		}
		for v := 0; v < s.Nodes(); v++ {
			ranks := s.NodeRanks(graph.NodeID(v))
			if len(ranks) > s.K() {
				t.Fatalf("node %d: %d ranks exceed k=%d", v, len(ranks), s.K())
			}
			for i := 1; i < len(ranks); i++ {
				if ranks[i] <= ranks[i-1] {
					t.Fatalf("node %d: accepted non-ascending ranks", v)
				}
			}
			_ = s.EstimateSphereSize(graph.NodeID(v))
		}
		_ = s.EstimateSpread(nil)
	})
}
