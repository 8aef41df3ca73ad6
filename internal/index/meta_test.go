package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/worlds"
)

// TestReadRefusesOtherGraph: an index sampled from graph A is refused next
// to a graph B of the same node count, by the strict read and the serving
// load alike, and the error names both graph fingerprints. B differs from
// A by one edge probability, or by one edge.
func TestReadRefusesOtherGraph(t *testing.T) {
	build := func(prob float64, extra bool) *graph.Graph {
		b := graph.NewBuilder(10)
		for i := 0; i < 10; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1)%10), 0.6)
		}
		b.AddEdge(0, 5, prob)
		if extra {
			b.AddEdge(3, 7, 0.5)
		}
		return b.MustBuild()
	}
	a := build(0.4, false)
	x, err := Build(context.Background(), a, Options{Samples: 6, Seed: 3}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "a.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	if back, err := LoadFile(p, a); err != nil || back.GraphFingerprint() != graphFingerprint(a) || back.Fingerprint() != x.Fingerprint() {
		t.Fatalf("own graph: err %v", err)
	}
	for name, other := range map[string]*graph.Graph{"probability": build(0.45, false), "edge": build(0.4, true)} {
		_, errFile := LoadFile(p, other)
		_, errServing := LoadServing(context.Background(), p, other, func(w int, err error) {
			t.Errorf("%s: serving load decoded world %d before refusing the graph: %v", name, w, err)
		})
		for load, err := range map[string]error{"LoadFile": errFile, "LoadServing": errServing} {
			want := []string{fmt.Sprintf("%016x", graphFingerprint(a)), fmt.Sprintf("%016x", graphFingerprint(other))}
			if err == nil || !strings.Contains(err.Error(), want[0]) || !strings.Contains(err.Error(), want[1]) {
				t.Fatalf("%s over a graph differing by one %s: err %v, want both fingerprints %v", load, name, err, want)
			}
		}
	}
}

// TestModelRecorded: the index records the model it was built under, the
// file carries it, a read restores it, and a partial build keeps it; the
// fingerprint tells an LT index from the IC one of the same seed.
func TestModelRecorded(t *testing.T) {
	g := wcGraph(t, 71, 30, 90)
	ic, err := Build(context.Background(), g, Options{Samples: 4, Seed: 72}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	lt, err := Build(context.Background(), g, Options{Samples: 4, Seed: 72, Model: worlds.LT}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if ic.Model() != worlds.IC || lt.Model() != worlds.LT || ic.Fingerprint() == lt.Fingerprint() {
		t.Fatalf("models %v/%v, fingerprints %016x/%016x", ic.Model(), lt.Model(), ic.Fingerprint(), lt.Fingerprint())
	}
	var buf bytes.Buffer
	if _, err := lt.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	back, err := Read(&buf, g)
	if err != nil {
		t.Fatal(err)
	}
	if back.Model() != worlds.LT || back.GraphFingerprint() != lt.GraphFingerprint() || back.Fingerprint() != lt.Fingerprint() {
		t.Fatalf("read back model %v graph %016x index %016x, want LT %016x %016x",
			back.Model(), back.GraphFingerprint(), back.Fingerprint(), lt.GraphFingerprint(), lt.Fingerprint())
	}
	done := checkpoint.NewBitmap(4)
	done.Set(1)
	if part := lt.compact(done); part.Model() != worlds.LT || part.GraphFingerprint() != lt.GraphFingerprint() {
		t.Fatalf("partial build: model %v graph %016x", part.Model(), part.GraphFingerprint())
	}
}

// TestUnknownModelIsCorrupt: a meta naming no model, under a valid
// directory checksum and footer, is corruption to every reader and to
// Fsck.
func TestUnknownModelIsCorrupt(t *testing.T) {
	g, _, _, raw := v3Fixture(t, 281, 2)
	d := append([]byte(nil), raw...)
	le := binary.LittleEndian
	le.PutUint32(d[16+8:], 7) // meta: after magic, nodes, blocks and the graph fingerprint
	dirEnd := FileKind.BlocksStart(2) - 4
	le.PutUint32(d[dirEnd:], blockfile.Checksum(d[:dirEnd]))
	le.PutUint32(d[len(d)-4:], blockfile.Checksum(d[:len(d)-4]))
	p := filepath.Join(t.TempDir(), "model7.idx")
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	_, errRead := Read(bytes.NewReader(d), g)
	_, errServing := LoadServing(context.Background(), p, g, nil)
	rep, err := blockfile.Fsck(p, FileKind)
	if err != nil {
		t.Fatal(err)
	}
	for name, err := range map[string]error{"Read": errRead, "LoadServing": errServing, "Fsck": rep.Fatal} {
		if !errors.Is(err, blockfile.ErrCorrupt) || !strings.Contains(err.Error(), "model 7") {
			t.Fatalf("%s: err = %v, want ErrCorrupt naming model 7", name, err)
		}
	}
}
