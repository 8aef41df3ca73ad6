package soi

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"testing"

	"soi/internal/core"
	"soi/internal/index"
	"soi/internal/sketch"
)

// TestArtifactGoldenBytes pins the exact bytes of the index, sketch and
// sphere-store artifacts and the fingerprints derived from them for one
// fixed seeded graph, as written at build and as re-written after a load.
// The encoders may be rewritten for speed, but the files they produce and
// the identities keyed on them (resume files, the sketch's and the store's
// index key, the topology manifest) must not move by a bit.
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
	// The zero-value options build the transitively reduced index, the same
	// one every CLI builder writes.
	const (
		indexFP  = uint64(0x3fb43d51c671dc8f)
		indexSHA = "9ce8d51b5220f330b3896c91b450f6b90c4bc8f4cdc0e07ac981677429d2c877"
		skcSHA   = "a762197dff6fcf28d54798446f49731b18cdd82356e4de1fb5a33f0a82a7911c"
		sphSHA   = "906f05a143ee4669cdc92732eef03b669770bd463d72e0bb944bf37e213a11ad"
	)
	x, err := BuildIndex(context.Background(), g, IndexOptions{Samples: 24, Seed: 17}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var idx bytes.Buffer
	if _, err := x.WriteTo(&idx); err != nil {
		t.Fatal(err)
	}
	if got := x.Fingerprint(); got != indexFP {
		t.Errorf("index fingerprint %016x, want %016x", got, indexFP)
	}
	if got := sum(idx.Bytes()); got != indexSHA {
		t.Errorf("index sha256 %s, want %s", got, indexSHA)
	}
	sk, err := sketch.Build(context.Background(), x, sketch.Options{K: 16, Seed: 18})
	if err != nil {
		t.Fatal(err)
	}
	var skc bytes.Buffer
	if _, err := sk.WriteTo(&skc); err != nil {
		t.Fatal(err)
	}
	if got := sum(skc.Bytes()); got != skcSHA {
		t.Errorf("sketch sha256 %s, want %s", got, skcSHA)
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
	if got := sum(idx2.Bytes()); got != indexSHA {
		t.Errorf("re-encoded index sha256 %s, want %s", got, indexSHA)
	}
	skb, err := sketch.Read(bytes.NewReader(skc.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var skc2 bytes.Buffer
	if _, err := skb.WriteTo(&skc2); err != nil {
		t.Fatal(err)
	}
	if got := sum(skc2.Bytes()); got != skcSHA {
		t.Errorf("re-encoded sketch sha256 %s, want %s", got, skcSHA)
	}

	spheres, err := AllTypicalCascades(context.Background(), x, TypicalOptions{}, ResumeConfig{})
	if err != nil {
		t.Fatal(err)
	}
	var sph bytes.Buffer
	if err := core.SaveSpheres(&sph, x.Fingerprint(), spheres); err != nil {
		t.Fatal(err)
	}
	if got := sum(sph.Bytes()); got != sphSHA {
		t.Errorf("sphere store sha256 %s, want %s", got, sphSHA)
	}
	loaded, fp, err := core.LoadSpheres(bytes.NewReader(sph.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	var sph2 bytes.Buffer
	if err := core.SaveSpheres(&sph2, fp, loaded); err != nil {
		t.Fatal(err)
	}
	if got := sum(sph2.Bytes()); got != sphSHA {
		t.Errorf("re-encoded sphere store sha256 %s, want %s", got, sphSHA)
	}
}
