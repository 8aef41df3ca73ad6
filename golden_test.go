package soi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"soi/internal/index"
	"soi/internal/sketch"
)

// TestArtifactGoldenBytes pins the exact bytes of the index and sketch
// artifacts and the fingerprints derived from them for one fixed seeded
// graph, as written at build and as re-written after a load. The
// index, sketch and fingerprint encoders may be rewritten for speed, but
// the files they produce and the identities keyed on them (resume files,
// the sketch's index key, the topology manifest) must not move by a bit.
func TestArtifactGoldenBytes(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "ba", N: 400, M: 4, Recip: 0.3, Clustering: 0.3, Seed: 16})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	if got, want := Fingerprint(g), uint64(0x68560bc715a8b2f7); got != want {
		t.Errorf("graph fingerprint %016x, want %016x", got, want)
	}
	sum := func(b []byte) string { s := sha256.Sum256(b); return hex.EncodeToString(s[:]) }
	for _, tc := range []struct {
		reduce           bool
		indexFP          uint64
		indexSHA, skcSHA string
	}{
		{false, 0xb2db9366db1d31ed,
			"93e88a0c0500240bc7a2de2a955fd1f1bcf58303faec64290e311cd402393b56",
			"d124228d5118aa0eb9a01fe7347bf96407c3b3c73779af694082127347108f68"},
		{true, 0x88f50381f24727db,
			"45283e0af84e344024ef81b44e8d5ca34b7f6c1676e8cb99557f29f881b4da50",
			"76b65ad357f23f0b003f231ec3b2d7f6df6daa2ee568ee797e0d16264b822c04"},
	} {
		x, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 24, Seed: 17, TransitiveReduction: tc.reduce})
		if err != nil {
			t.Fatal(err)
		}
		var idx bytes.Buffer
		if _, err := x.WriteTo(&idx); err != nil {
			t.Fatal(err)
		}
		if got := x.Fingerprint(); got != tc.indexFP {
			t.Errorf("reduce=%v: index fingerprint %016x, want %016x", tc.reduce, got, tc.indexFP)
		}
		if got := sum(idx.Bytes()); got != tc.indexSHA {
			t.Errorf("reduce=%v: index sha256 %s, want %s", tc.reduce, got, tc.indexSHA)
		}
		sk, err := sketch.Build(x, sketch.Options{K: 16, Seed: 18})
		if err != nil {
			t.Fatal(err)
		}
		var skc bytes.Buffer
		if _, err := sk.WriteTo(&skc); err != nil {
			t.Fatal(err)
		}
		if got := sum(skc.Bytes()); got != tc.skcSHA {
			t.Errorf("reduce=%v: sketch sha256 %s, want %s", tc.reduce, got, tc.skcSHA)
		}

		// Decoding and re-encoding must reproduce the same bytes.
		xb, err := index.Read(bytes.NewReader(idx.Bytes()), g)
		if err != nil {
			t.Fatal(err)
		}
		var idx2 bytes.Buffer
		if _, err := xb.WriteTo(&idx2); err != nil {
			t.Fatal(err)
		}
		if got := sum(idx2.Bytes()); got != tc.indexSHA {
			t.Errorf("reduce=%v: re-encoded index sha256 %s, want %s", tc.reduce, got, tc.indexSHA)
		}
		skb, err := sketch.Read(bytes.NewReader(skc.Bytes()))
		if err != nil {
			t.Fatal(err)
		}
		var skc2 bytes.Buffer
		if _, err := skb.WriteTo(&skc2); err != nil {
			t.Fatal(err)
		}
		if got := sum(skc2.Bytes()); got != tc.skcSHA {
			t.Errorf("reduce=%v: re-encoded sketch sha256 %s, want %s", tc.reduce, got, tc.skcSHA)
		}
	}
}
