package core

import (
	"bytes"
	"encoding/binary"
	"testing"

	"soi/internal/blockfile"
)

// FuzzLoadSpheres feeds arbitrary bytes to the sphere-store reader: it must
// never panic or allocate unboundedly, and anything it accepts must be a
// canonical store — saving the loaded spheres under the loaded index
// fingerprint reproduces the input bytes exactly, so nothing the checksums
// vouched for was dropped or reinterpreted. The seed corpus mutates the
// meta, the directory and a node-range block, not just the footer.
func FuzzLoadSpheres(f *testing.F) {
	g := paperGraph(f)
	x := buildIndex(f, g, 30, 41)
	results := computeAll(f, x, Options{CostSamples: 40, CostSeed: 42})
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, x.Fingerprint(), results); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)                                  // footer flipped
	f.Add(clean[:len(clean)/2])                     // truncated store
	f.Add(append(append([]byte(nil), clean...), 0)) // trailing byte
	mutate := func(pos int64, val byte) {
		d := append([]byte(nil), clean...)
		d[pos] ^= val
		f.Add(d)
	}
	mutate(StoreKind.HeaderLen()-8, 0x01)    // meta: index fingerprint
	mutate(StoreKind.HeaderLen()+8, 0x01)    // directory: block length
	mutate(StoreKind.HeaderLen()+16, 0x01)   // directory: member count
	mutate(StoreKind.BlocksStart(1)+2, 0x7F) // node 0's set length
	mutate(StoreKind.BlocksStart(1)+7, 0xFF) // a member id
	// A clean store in the retired SOISPH02 format: magic, node count,
	// the same per-node records, CRC32-C footer.
	old := binary.LittleEndian.AppendUint32([]byte("SOISPH02"), uint32(len(results)))
	for v := range results {
		old = appendSphereRecord(old, &results[v])
	}
	f.Add(binary.LittleEndian.AppendUint32(old, blockfile.Checksum(old)))
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, fp, err := LoadSpheres(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveSpheres(&out, fp, rs); err != nil {
			t.Fatalf("accepted store does not re-save: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted store does not round-trip byte for byte")
		}
	})
}
