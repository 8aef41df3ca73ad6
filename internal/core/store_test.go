package core

import (
	"bytes"
	"os"
	"testing"

	"soi/internal/graph"
	"soi/internal/rng"
)

func TestSphereStoreRoundTrip(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 200, 31)
	results := computeAll(t, x, Options{CostSamples: 100, CostSeed: 32})

	var buf bytes.Buffer
	if err := SaveSpheres(&buf, results); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpheres(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != len(results) {
		t.Fatalf("loaded %d, want %d", len(loaded), len(results))
	}
	for v := range results {
		if !equal(loaded[v].Set, results[v].Set) {
			t.Fatalf("node %d: set %v != %v", v, loaded[v].Set, results[v].Set)
		}
		if loaded[v].SampleCost != results[v].SampleCost ||
			loaded[v].ExpectedCost != results[v].ExpectedCost {
			t.Fatalf("node %d: costs differ", v)
		}
		if len(loaded[v].Seeds) != 1 || loaded[v].Seeds[0] != graph.NodeID(v) {
			t.Fatalf("node %d: seeds %v", v, loaded[v].Seeds)
		}
	}
}

func TestSphereStoreFile(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 50, 33)
	results := computeAll(t, x, Options{})
	path := t.TempDir() + "/spheres.bin"
	if err := SaveSpheresFile(path, results); err != nil {
		t.Fatal(err)
	}
	loaded, err := LoadSpheresFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(loaded) != g.NumNodes() {
		t.Fatalf("loaded %d spheres", len(loaded))
	}
}

func TestSaveSpheresRejectsNonCanonical(t *testing.T) {
	bad := []Result{{Seeds: []graph.NodeID{3}, Set: []graph.NodeID{3}}}
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, bad); err == nil {
		t.Fatal("accepted results not indexed by node id")
	}
}

// TestLoadSpheresDetectsEveryBitFlip flips every single bit of a sphere
// store and requires LoadSpheres to reject each corrupted copy — the CRC32-C
// footer catches the flips (a cost mantissa bit, say) that pass every
// structural check.
func TestLoadSpheresDetectsEveryBitFlip(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 30, 36)
	results := computeAll(t, x, Options{CostSamples: 50, CostSeed: 37})
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, results); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := range clean {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), clean...)
			data[pos] ^= 1 << bit
			if _, err := LoadSpheres(bytes.NewReader(data)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d was accepted", pos, bit)
			}
		}
	}
	// Trailing data after the footer is corruption too.
	if _, err := LoadSpheres(bytes.NewReader(append(clean, 0x00))); err == nil {
		t.Fatal("accepted trailing data after the checksum footer")
	}
}

func TestLoadSpheresRejectsCorruption(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 30, 34)
	results := computeAll(t, x, Options{})
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, results); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Bad magic.
	data := append([]byte(nil), clean...)
	data[0] ^= 0xFF
	if _, err := LoadSpheres(bytes.NewReader(data)); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Truncations fail cleanly.
	for cut := 0; cut < len(clean); cut += 5 {
		if _, err := LoadSpheres(bytes.NewReader(clean[:cut])); err == nil {
			t.Fatalf("cut %d accepted", cut)
		}
	}
	// Random byte corruption never panics.
	r := rng.New(35)
	for trial := 0; trial < 200; trial++ {
		data := append([]byte(nil), clean...)
		for c := 0; c < 1+r.Intn(3); c++ {
			pos := 8 + r.Intn(len(data)-8)
			data[pos] ^= byte(1 + r.Intn(255))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: panic %v", trial, p)
				}
			}()
			_, _ = LoadSpheres(bytes.NewReader(data))
		}()
	}
}

func TestRepairSpheresFile(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 50, 35)
	results := computeAll(t, x, Options{})
	dir := t.TempDir()
	src := dir + "/spheres.bin"
	if err := SaveSpheresFile(src, results); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}

	// A flipped checksum footer makes the whole store unloadable...
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpheresFile(src); err == nil {
		t.Fatal("corrupt footer accepted")
	}
	// ...but the payload is intact, so repair recovers every sphere.
	out := dir + "/repaired.bin"
	n, err := RepairSpheresFile(src, out)
	if err != nil {
		t.Fatal(err)
	}
	if n != g.NumNodes() {
		t.Fatalf("repaired %d spheres, want %d", n, g.NumNodes())
	}
	loaded, err := LoadSpheresFile(out)
	if err != nil {
		t.Fatalf("repaired store does not load: %v", err)
	}
	for v := range results {
		if !equal(loaded[v].Set, results[v].Set) {
			t.Fatalf("node %d: set changed across repair", v)
		}
	}

	// Payload corruption is beyond repair: records share one checksum.
	data[8] ^= 0xFF // node-count word
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := RepairSpheresFile(src, out); err == nil {
		t.Fatal("unrecoverable payload repaired silently")
	}
}
