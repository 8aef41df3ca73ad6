package core

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/graph"
	"soi/internal/rng"
)

func TestSphereStoreRoundTrip(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 200, 31)
	results := computeAll(t, x, Options{CostSamples: 100, CostSeed: 32})

	var buf bytes.Buffer
	if err := SaveSpheres(&buf, x.Fingerprint(), results); err != nil {
		t.Fatal(err)
	}
	loaded, fp, err := LoadSpheres(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if fp != x.Fingerprint() {
		t.Fatalf("store carries index fingerprint %016x, want %016x", fp, x.Fingerprint())
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
	if err := SaveSpheresFile(path, x.Fingerprint(), results); err != nil {
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
	if err := SaveSpheres(&buf, 0, bad); err == nil {
		t.Fatal("accepted results not indexed by node id")
	}
}

// TestLoadSpheresDetectsEveryBitFlip flips every single bit of a sphere
// store and requires LoadSpheres to reject each corrupted copy — the block
// and directory CRC32-Cs catch the flips (a cost mantissa bit, say) that
// pass every structural check.
func TestLoadSpheresDetectsEveryBitFlip(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 30, 36)
	results := computeAll(t, x, Options{CostSamples: 50, CostSeed: 37})
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, x.Fingerprint(), results); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := range clean {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), clean...)
			data[pos] ^= 1 << bit
			if err := loadSpheres(data); err == nil {
				t.Fatalf("bit flip at byte %d bit %d was accepted", pos, bit)
			}
		}
	}
	// Trailing data after the footer is corruption too.
	if err := loadSpheres(append(clean, 0x00)); err == nil {
		t.Fatal("accepted trailing data after the checksum footer")
	}
}

func TestLoadSpheresRejectsCorruption(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 30, 34)
	results := computeAll(t, x, Options{})
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, x.Fingerprint(), results); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	// Bad magic.
	data := append([]byte(nil), clean...)
	data[0] ^= 0xFF
	if err := loadSpheres(data); err == nil {
		t.Fatal("accepted bad magic")
	}
	// Truncations fail cleanly.
	for cut := 0; cut < len(clean); cut += 5 {
		if err := loadSpheres(clean[:cut]); err == nil {
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
			_ = loadSpheres(data)
		}()
	}
}

// TestRepairSpheresFile: blockfile.Repair rewrites a store whose blocks
// all verify — a flipped footer or trailing garbage — into a clean file,
// and refuses one with a bad node-range block, naming the rebuild command.
func TestRepairSpheresFile(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 50, 35)
	results := computeAll(t, x, Options{})
	dir := t.TempDir()
	src := dir + "/spheres.bin"
	if err := SaveSpheresFile(src, x.Fingerprint(), results); err != nil {
		t.Fatal(err)
	}
	clean, err := os.ReadFile(src)
	if err != nil {
		t.Fatal(err)
	}
	out := dir + "/repaired.bin"
	for name, data := range map[string][]byte{
		"flipped footer": append(clean[:len(clean)-1:len(clean)-1], clean[len(clean)-1]^0xFF),
		"trailing bytes": append(clean[:len(clean):len(clean)], 1, 2, 3),
	} {
		if err := os.WriteFile(src, data, 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := LoadSpheresFile(src); err == nil {
			t.Fatalf("%s: accepted", name)
		}
		// The blocks are intact, so repair recovers every sphere.
		if _, n, err := blockfile.Repair(src, out, StoreKind); err != nil || n != 1 {
			t.Fatalf("%s: repair wrote %d blocks, err %v", name, n, err)
		}
		loaded, err := LoadSpheresFor(out, x)
		if err != nil {
			t.Fatalf("%s: repaired store does not load: %v", name, err)
		}
		for v := range results {
			if !equal(loaded[v].Set, results[v].Set) {
				t.Fatalf("%s: node %d: set changed across repair", name, v)
			}
		}
	}

	// A bad node-range block cannot be dropped: the store is refused.
	data := append([]byte(nil), clean...)
	data[StoreKind.BlocksStart(1)+2] ^= 0xFF
	if err := os.WriteFile(src, data, 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err = blockfile.Repair(src, out, StoreKind)
	if err == nil || !strings.Contains(err.Error(), StoreKind.Rebuild) {
		t.Fatalf("repair of a corrupt block: err = %v, want a refusal naming %q", err, StoreKind.Rebuild)
	}
}

// TestSphereStoreBlocks round-trips a store of several node-range blocks,
// the last one partial, and checks every block is verified on its own.
func TestSphereStoreBlocks(t *testing.T) {
	n := 2*blockfile.RangeNodes + 17
	results := make([]Result, n)
	for v := range results {
		results[v] = Result{Seeds: []graph.NodeID{graph.NodeID(v)}, Set: []graph.NodeID{graph.NodeID(v)}, SampleCost: 0.5, ExpectedCost: -1}
	}
	results[n-1].Set = []graph.NodeID{0, graph.NodeID(n - 1)}
	var buf bytes.Buffer
	if err := SaveSpheres(&buf, 7, results); err != nil {
		t.Fatal(err)
	}
	loaded, fp, err := LoadSpheres(&buf)
	if err != nil || fp != 7 || len(loaded) != n || !equal(loaded[n-1].Set, results[n-1].Set) {
		t.Fatalf("round trip: %d spheres, fp %d, err %v", len(loaded), fp, err)
	}
	p := filepath.Join(t.TempDir(), "s.spheres")
	if err := SaveSpheresFile(p, 7, results); err != nil {
		t.Fatal(err)
	}
	rep, err := blockfile.Fsck(p, StoreKind)
	if err != nil || !rep.Clean() || len(rep.Dir) != 3 {
		t.Fatalf("fsck: %+v, err %v; want clean with 3 blocks", rep, err)
	}
	if got := rep.Label(2); got != fmt.Sprintf("nodes %d-%d", 2*blockfile.RangeNodes, n-1) {
		t.Fatalf("last block label %q", got)
	}
}

// TestLoadSpheresForRefusesForeignIndex: a store computed from one index is
// refused next to another index of a graph with the same node count.
func TestLoadSpheresForRefusesForeignIndex(t *testing.T) {
	g := paperGraph(t)
	x, y := buildIndex(t, g, 30, 38), buildIndex(t, g, 30, 39)
	p := filepath.Join(t.TempDir(), "s.spheres")
	if err := SaveSpheresFile(p, x.Fingerprint(), computeAll(t, x, Options{})); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadSpheresFor(p, x); err != nil {
		t.Fatalf("own index: %v", err)
	}
	_, err := LoadSpheresFor(p, y)
	if err == nil || !strings.Contains(err.Error(), StoreKind.Rebuild) {
		t.Fatalf("foreign index: err = %v, want a refusal naming %q", err, StoreKind.Rebuild)
	}
}

// TestLoadSpheresRejectsRetiredMagic: a SOISPH02 store is rejected, naming
// its magic and the rebuild command.
func TestLoadSpheresRejectsRetiredMagic(t *testing.T) {
	err := loadSpheres([]byte("SOISPH02\x05\x00\x00\x00"))
	if !errors.Is(err, blockfile.ErrMagic) || !strings.Contains(err.Error(), "SOISPH02") || !strings.Contains(err.Error(), StoreKind.Rebuild) {
		t.Fatalf("err = %v, want ErrMagic naming SOISPH02 and the rebuild command", err)
	}
}

func loadSpheres(data []byte) error {
	_, _, err := LoadSpheres(bytes.NewReader(data))
	return err
}
