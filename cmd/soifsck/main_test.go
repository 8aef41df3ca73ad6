package main

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
	"soi/internal/worlds"
)

// fsckGraph is a small ring with shortcuts — enough worlds and nodes that
// every block is a few hundred bytes.
func fsckGraph(t *testing.T) *graph.Graph {
	t.Helper()
	b := graph.NewBuilder(12)
	for i := 0; i < 12; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%12), 0.8)
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+5)%12), 0.3)
	}
	return b.MustBuild()
}

func writeIndexFile(t *testing.T) string {
	t.Helper()
	x, err := index.Build(context.Background(), fsckGraph(t), index.Options{Samples: 8, Seed: 5}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	return p
}

// corruptWorld flips a byte in the middle of one world's block, locating it
// through the fsck report's directory geometry.
func corruptWorld(t *testing.T, path string, world int) {
	t.Helper()
	rep, err := blockfile.Fsck(path, index.FileKind)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Dir[world]
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data[b.Off+int64(b.Len)/2] ^= 0xFF
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
}

func TestCheckFileIndex(t *testing.T) {
	p := writeIndexFile(t)
	if code := checkFile(p, "", true); code != 0 {
		t.Fatalf("clean index: exit %d, want 0", code)
	}
	corruptWorld(t, p, 3)
	if code := checkFile(p, "", false); code != 1 {
		t.Fatalf("corrupt index: exit %d, want 1", code)
	}
	out := filepath.Join(t.TempDir(), "fixed.idx")
	if code := checkFile(p, out, false); code != 1 {
		t.Fatalf("repair of corrupt index: exit %d, want 1 (corruption was found)", code)
	}
	if code := checkFile(out, "", false); code != 0 {
		t.Fatalf("repaired index: exit %d, want 0", code)
	}
	rep, err := blockfile.Fsck(out, index.FileKind)
	if err != nil || !rep.Clean() || len(rep.Dir) != 7 {
		t.Fatalf("repaired report %+v (err %v), want clean with 7 worlds", rep, err)
	}
}

func TestCheckFileIndexRepairTotalLoss(t *testing.T) {
	p := writeIndexFile(t)
	for w := 0; w < 8; w++ {
		corruptWorld(t, p, w)
	}
	out := filepath.Join(t.TempDir(), "fixed.idx")
	if code := checkFile(p, out, false); code != 2 {
		t.Fatalf("repair with zero survivors: exit %d, want 2", code)
	}
}

func TestCheckFileSpheres(t *testing.T) {
	g := fsckGraph(t)
	x, err := index.Build(context.Background(), g, index.Options{Samples: 8, Seed: 5}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spheres, err := core.ComputeAll(context.Background(), x, core.Options{CostSamples: 20, CostSeed: 6}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.spheres")
	if err := core.SaveSpheresFile(p, x.Fingerprint(), spheres); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 0 {
		t.Fatalf("clean store: exit %d, want 0", code)
	}

	// Flip the trailing checksum footer: detectable and repairable.
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-1] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 1 {
		t.Fatalf("corrupt store: exit %d, want 1", code)
	}
	out := filepath.Join(t.TempDir(), "fixed.spheres")
	if code := checkFile(p, out, false); code != 1 {
		t.Fatalf("repair of corrupt store: exit %d, want 1 (original was corrupt)", code)
	}
	if code := checkFile(out, "", false); code != 0 {
		t.Fatalf("repaired store: exit %d, want 0", code)
	}
	if code := checkFile(out, filepath.Join(t.TempDir(), "again.spheres"), false); code != 0 {
		t.Fatalf("repair of a clean store: exit %d, want 0", code)
	}

	// Payload corruption is unrecoverable: a node-range block cannot be
	// dropped.
	data[core.StoreKind.BlocksStart(1)+2] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 1 {
		t.Fatalf("block-corrupt store: exit %d, want 1", code)
	}
	if code := checkFile(p, out, false); code != 2 {
		t.Fatalf("repair of payload-corrupt store: exit %d, want 2", code)
	}
}

func TestCheckFileSketch(t *testing.T) {
	x, err := index.Build(context.Background(), fsckGraph(t), index.Options{Samples: 8, Seed: 5}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.Build(context.Background(), x, sketch.Options{K: 4, Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.skc")
	if err := sk.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", true); code != 0 {
		t.Fatalf("clean sketch: exit %d, want 0", code)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	data[len(data)-6] ^= 0xFF // a rank of the last node
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 1 {
		t.Fatalf("block-corrupt sketch: exit %d, want 1", code)
	}
	if code := checkFile(p, filepath.Join(t.TempDir(), "fixed.skc"), false); code != 2 {
		t.Fatalf("repair of block-corrupt sketch: exit %d, want 2", code)
	}
}

func TestCheckFileUnusable(t *testing.T) {
	if code := checkFile(filepath.Join(t.TempDir(), "nope"), "", false); code != 2 {
		t.Fatalf("missing file: exit %d, want 2", code)
	}
	p := filepath.Join(t.TempDir(), "junk")
	if err := os.WriteFile(p, []byte("NOTANIDX-at-all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if code := checkFile(p, "", false); code != 2 {
		t.Fatalf("unrecognized magic: exit %d, want 2", code)
	}
}

// captureLog returns what fn logs.
func captureLog(t *testing.T, fn func()) string {
	t.Helper()
	var buf bytes.Buffer
	log.SetOutput(&buf)
	defer log.SetOutput(os.Stderr)
	fn()
	return buf.String()
}

// TestCheckFileIndexInputs: an index's summary names the model and graph
// fingerprint its worlds were sampled from.
func TestCheckFileIndexInputs(t *testing.T) {
	b := graph.NewBuilder(8)
	for i := 0; i < 8; i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%8), 0.6) // in-weights <= 1: a valid LT input
	}
	x, err := index.Build(context.Background(), b.MustBuild(), index.Options{Samples: 3, Seed: 5, Model: worlds.LT}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "lt.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	code := 0
	out := captureLog(t, func() { code = checkFile(p, "", false) })
	if want := fmt.Sprintf(" model=LT graph=%016x ", x.GraphFingerprint()); code != 0 || !strings.Contains(out, want) {
		t.Fatalf("exit %d, log:\n%s\nwant a summary naming%q", code, out, want)
	}
}

// TestCheckFileSOIIDX03: an index in a retired format (SOIIDX03 or
// SOIIDX04, real files of each) is unusable (exit 2), verified or
// repaired, and the refusal names the rebuild command.
func TestCheckFileSOIIDX03(t *testing.T) {
	for _, magic := range []string{"SOIIDX03", "SOIIDX04"} {
		p := filepath.Join("..", "..", "internal", "index", "testdata", strings.ToLower(magic)+".idx")
		for _, repair := range []string{"", filepath.Join(t.TempDir(), "fixed.idx")} {
			code := 0
			out := captureLog(t, func() { code = checkFile(p, repair, false) })
			if code != 2 || !strings.Contains(out, magic) || !strings.Contains(out, "sphere -graph g.tsv -build-index new.idx") {
				t.Fatalf("%s, repair %q: exit %d, log:\n%s\nwant exit 2 naming the retired magic and the rebuild command", magic, repair, code, out)
			}
		}
	}
}
