package core

import (
	"bytes"
	"testing"
)

// FuzzLoadSpheres feeds arbitrary bytes to the sphere-store reader: it must
// never panic or allocate unboundedly, and anything it accepts must be a
// canonical store — saving the loaded spheres reproduces the input bytes
// exactly, so nothing the checksum vouched for was dropped or reinterpreted.
func FuzzLoadSpheres(f *testing.F) {
	g := paperGraph(f)
	results := computeAll(f, buildIndex(f, g, 30, 41), Options{CostSamples: 40, CostSeed: 42})
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, results); err != nil {
		f.Fatal(err)
	}
	clean := buf.Bytes()
	f.Add(clean)
	flipped := append([]byte(nil), clean...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add(flipped)                                  // footer flipped
	f.Add(clean[:len(clean)/2])                     // truncated store
	f.Add(append(append([]byte(nil), clean...), 0)) // trailing byte
	f.Fuzz(func(t *testing.T, data []byte) {
		rs, err := LoadSpheres(bytes.NewReader(data))
		if err != nil {
			return
		}
		var out bytes.Buffer
		if err := SaveSpheres(&out, rs); err != nil {
			t.Fatalf("accepted store does not re-save: %v", err)
		}
		if !bytes.Equal(out.Bytes(), data) {
			t.Fatal("accepted store does not round-trip byte for byte")
		}
	})
}
