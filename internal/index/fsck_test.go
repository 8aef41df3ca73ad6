package index

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// fsckFixture serializes a fresh index to a temp file and returns the path,
// the raw bytes, and the directory for targeted corruption.
func fsckFixture(t *testing.T) (string, []byte, []blockfile.BlockInfo, *graph.Graph) {
	t.Helper()
	g := randomGraph(t, 161, 25, 90)
	x, err := Build(context.Background(), g, Options{Samples: 6, Seed: 162}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := buf.Bytes()
	dir, err := blockfile.ParseDirectory(data[FileKind.HeaderLen():FileKind.BlocksStart(6)-4], 6)
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "fsck.idx")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p, data, dir, g
}

func TestFsckCleanFile(t *testing.T) {
	p, _, _, _ := fsckFixture(t)
	rep, err := blockfile.Fsck(p, FileKind)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Clean() || rep.Bad() != 0 || !rep.FooterOK {
		t.Fatalf("clean file reported dirty: %+v", rep)
	}
	if rep.Kind != FileKind || rep.Nodes != 25 || len(rep.Dir) != 6 {
		t.Fatalf("report header: %+v", rep)
	}
	if len(rep.Errs) != 6 {
		t.Fatalf("got %d block reports, want 6", len(rep.Errs))
	}
}

func TestFsckReportsEveryBadBlock(t *testing.T) {
	p, data, dir, _ := fsckFixture(t)
	d := append([]byte(nil), data...)
	d[dir[1].Off+2] ^= 0xFF
	d[dir[4].Off+2] ^= 0xFF
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	rep, err := blockfile.Fsck(p, FileKind)
	if err != nil {
		t.Fatal(err)
	}
	if rep.Clean() {
		t.Fatal("corrupt file reported clean")
	}
	if rep.Bad() != 2 {
		t.Fatalf("Bad %d, want 2 (one pass must find both)", rep.Bad())
	}
	for _, w := range []int{1, 4} {
		if rep.Errs[w] == nil {
			t.Fatalf("world %d not flagged", w)
		}
	}
	if rep.FooterOK {
		t.Fatal("whole-file footer cannot be ok with a corrupt block")
	}
}

func TestRepairFileDropsBadWorlds(t *testing.T) {
	p, data, dir, g := fsckFixture(t)
	d := append([]byte(nil), data...)
	d[dir[3].Off+5] ^= 0xFF
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "repaired.idx")
	rep, kept, err := blockfile.Repair(p, out, FileKind)
	if err != nil {
		t.Fatal(err)
	}
	if kept != 5 || rep.Bad() != 1 {
		t.Fatalf("kept %d (bad %d), want 5 kept 1 bad", kept, rep.Bad())
	}
	// The repaired file is clean by both fsck and the strict eager reader.
	rep2, err := blockfile.Fsck(out, FileKind)
	if err != nil {
		t.Fatal(err)
	}
	if !rep2.Clean() || len(rep2.Dir) != 5 {
		t.Fatalf("repaired file not clean: %+v", rep2)
	}
	x, err := LoadFile(out, g)
	if err != nil {
		t.Fatalf("strict reader rejects repaired file: %v", err)
	}
	if x.NumWorlds() != 5 {
		t.Fatalf("repaired index has %d worlds, want 5", x.NumWorlds())
	}
}

func TestRepairFileRefusesTotalLoss(t *testing.T) {
	p, data, dir, _ := fsckFixture(t)
	d := append([]byte(nil), data...)
	for _, b := range dir {
		d[b.Off] ^= 0xFF
	}
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, _, err := blockfile.Repair(p, filepath.Join(t.TempDir(), "out.idx"), FileKind); err == nil {
		t.Fatal("repairing a fully corrupt index must fail, not write an empty file")
	}
}

// TestFsckFatalShapes: structural damage that prevents block-level
// verification entirely is reported as Fatal, never as a parse error.
func TestFsckFatalShapes(t *testing.T) {
	_, data, _, _ := fsckFixture(t)
	mangle := func(name string, f func(d []byte) []byte) {
		t.Helper()
		p := filepath.Join(t.TempDir(), "bad.idx")
		if err := os.WriteFile(p, f(append([]byte(nil), data...)), 0o644); err != nil {
			t.Fatal(err)
		}
		rep, err := blockfile.Fsck(p, FileKind)
		if err != nil {
			t.Fatalf("%s: I/O error %v", name, err)
		}
		if rep.Fatal == nil {
			t.Fatalf("%s: no Fatal in report %+v", name, rep)
		}
		if rep.Clean() {
			t.Fatalf("%s: fatal report counts as clean", name)
		}
	}
	mangle("too short for a header", func(d []byte) []byte { return d[:10] })
	mangle("unrecognized magic", func(d []byte) []byte { copy(d, "SOIIDX99"); return d })
	mangle("zero node count", func(d []byte) []byte { copy(d[8:12], []byte{0, 0, 0, 0}); return d })
	mangle("implausible world count", func(d []byte) []byte { copy(d[12:16], []byte{255, 255, 255, 255}); return d })
	mangle("ends inside the directory", func(d []byte) []byte { return d[:FileKind.HeaderLen()+blockfile.EntrySize] })
	mangle("directory checksum flip", func(d []byte) []byte { d[FileKind.HeaderLen()] ^= 0xFF; return d })

	// A missing file is an I/O error, not a report.
	if rep, err := blockfile.Fsck(filepath.Join(t.TempDir(), "nope.idx"), FileKind); err == nil || rep != nil {
		t.Fatalf("missing file: rep %+v err %v, want nil report + error", rep, err)
	}
}
