package index

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/telemetry"
)

// v3Fixture builds an index, serializes it to a v03 file, and returns the
// index, the file path, and the raw bytes.
func v3Fixture(t testing.TB, seed uint64, samples int) (*graph.Graph, *Index, string, []byte) {
	t.Helper()
	g := randomGraph(t, seed, 25, 90)
	x, err := Build(context.Background(), g, Options{Samples: samples, Seed: seed + 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "idx.v3")
	if err := os.WriteFile(p, buf.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}
	return g, x, p, buf.Bytes()
}

// sameCascades asserts a and b answer every (node, world) cascade query
// identically.
func sameCascades(t *testing.T, g *graph.Graph, a, b *Index) {
	t.Helper()
	if a.NumWorlds() != b.NumWorlds() {
		t.Fatalf("world counts differ: %d vs %d", a.NumWorlds(), b.NumWorlds())
	}
	sa, sb := a.NewScratch(), b.NewScratch()
	for w := 0; w < a.NumWorlds(); w++ {
		for v := 0; v < g.NumNodes(); v++ {
			ca := a.Cascade(graph.NodeID(v), w, sa, nil)
			cb := b.Cascade(graph.NodeID(v), w, sb, nil)
			if !equal(ca, cb) {
				t.Fatalf("world %d node %d: cascades differ", w, v)
			}
		}
	}
}

func TestV3RoundTrip(t *testing.T) {
	g, x, _, raw := v3Fixture(t, 201, 5)
	loaded, err := Read(bytes.NewReader(raw), g)
	if err != nil {
		t.Fatal(err)
	}
	sameCascades(t, g, x, loaded)
	// Serialization is deterministic: re-writing reproduces the bytes.
	var again bytes.Buffer
	if _, err := loaded.WriteTo(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again.Bytes(), raw) {
		t.Fatal("v03 round trip is not bit-identical")
	}
}

// TestOpenMmapMatchesEagerRead: the serving load (LoadServing, the load
// behind the deprecated OpenMmap) of a clean file answers exactly as the
// strict Read, quarantines nothing, and reports the same fingerprint.
func TestOpenMmapMatchesEagerRead(t *testing.T) {
	g, x, p, _ := v3Fixture(t, 211, 5)
	sv, err := LoadServing(context.Background(), p, g, nil)
	if err != nil {
		t.Fatal(err)
	}
	sameCascades(t, g, x, sv)
	if q := sv.QuarantinedWorlds(); q != 0 {
		t.Fatalf("clean file quarantined %d worlds", q)
	}
	if sv.LiveWorlds() != sv.NumWorlds() {
		t.Fatalf("LiveWorlds %d != NumWorlds %d on a clean file", sv.LiveWorlds(), sv.NumWorlds())
	}
	for i := 0; i < x.NumWorlds(); i++ {
		if sv.NumComponents(i) != x.NumComponents(i) {
			t.Fatalf("world %d: NumComponents %d (serving) vs %d (eager)", i, sv.NumComponents(i), x.NumComponents(i))
		}
	}
	eager, err := LoadFile(p, g)
	if err != nil {
		t.Fatal(err)
	}
	if eager.Fingerprint() != sv.Fingerprint() {
		t.Fatal("strict and serving fingerprints of the same v03 file differ")
	}
	// The deprecated shims keep their callers working over the serving load.
	old, err := OpenMmap(p, g, MmapOptions{})
	if err != nil || old.Lazy() || old.Close() != nil || old.Fingerprint() != sv.Fingerprint() {
		t.Fatalf("OpenMmap shim: err %v", err)
	}
}

// TestOneFingerprintPerIndex: an index has one identity however it is held.
// A built index reports the fingerprint of the file it saves — whether
// asked before the save or after it — and the strict load and the serving
// load of that file report it too. A file rewritten by blockfile.Repair
// likewise gets one fingerprint through both loaders.
func TestOneFingerprintPerIndex(t *testing.T) {
	g := randomGraph(t, 281, 25, 90)
	opts := Options{Samples: 5, Seed: 282}
	x, err := Build(context.Background(), g, opts, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	built := x.Fingerprint() // measured from the worlds, before any save
	dir := t.TempDir()
	p := filepath.Join(dir, "idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	y, err := Build(context.Background(), g, opts, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	if err := y.SaveFile(filepath.Join(dir, "idx2")); err != nil {
		t.Fatal(err)
	}
	loadBoth := func(path string) (eager, serving uint64) {
		t.Helper()
		e, err := LoadFile(path, g)
		if err != nil {
			t.Fatal(err)
		}
		sv, err := LoadServing(context.Background(), path, g, nil)
		if err != nil {
			t.Fatal(err)
		}
		return e.Fingerprint(), sv.Fingerprint()
	}
	eager, serving := loadBoth(p)
	if built != eager || built != serving || y.Fingerprint() != built {
		t.Fatalf("fingerprints differ: built %016x, saved-then-asked %016x, LoadFile %016x, LoadServing %016x",
			built, y.Fingerprint(), eager, serving)
	}

	// Corrupt one block and repair: the rewritten file has fewer worlds, so
	// a new identity, but one identity.
	raw, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	raw[FileKind.BlocksStart(x.NumWorlds())+3] ^= 0xFF
	if err := os.WriteFile(p, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	fixed := filepath.Join(dir, "fixed")
	if _, kept, err := blockfile.Repair(p, fixed, FileKind); err != nil || kept != x.NumWorlds()-1 {
		t.Fatalf("Repair kept %d worlds, err %v", kept, err)
	}
	eager, serving = loadBoth(fixed)
	if eager != serving {
		t.Fatalf("repaired file: LoadFile %016x != LoadServing %016x", eager, serving)
	}
	if eager == built {
		t.Fatal("repaired file with a dropped world kept the original fingerprint")
	}
}

// TestOpenMmapQuarantinesCorruptBlock: the serving load of a file with one
// corrupt world block succeeds, quarantines exactly that world (callback,
// counter, LiveWorlds), and answers from the others as the clean index does.
func TestOpenMmapQuarantinesCorruptBlock(t *testing.T) {
	g, x, p, raw := v3Fixture(t, 221, 6)
	// Flip one byte in world 2's block.
	worlds := x.NumWorlds()
	dir, err := blockfile.ParseDirectory(raw[FileKind.HeaderLen():FileKind.BlocksStart(worlds)-4], worlds)
	if err != nil {
		t.Fatal(err)
	}
	bad := append([]byte(nil), raw...)
	bad[dir[2].Off+int64(dir[2].Len)/2] ^= 0x40
	if err := os.WriteFile(p, bad, 0o644); err != nil {
		t.Fatal(err)
	}

	tel := telemetry.New()
	var quarWorld int
	quarCalls := 0
	sv, err := LoadServing(telemetry.NewContext(context.Background(), tel), p, g,
		func(w int, err error) { quarWorld, quarCalls = w, quarCalls+1 })
	if err != nil {
		t.Fatalf("load of a block-corrupt file must succeed (degrade, not fail): %v", err)
	}
	if quarCalls != 1 || quarWorld != 2 {
		t.Fatalf("quarantine callback: %d calls, world %d; want 1 call for world 2", quarCalls, quarWorld)
	}
	if sv.QuarantinedWorlds() != 1 || sv.LiveWorlds() != worlds-1 {
		t.Fatalf("quarantined=%d live=%d, want 1 and %d", sv.QuarantinedWorlds(), sv.LiveWorlds(), worlds-1)
	}
	if got := tel.Counter("index.worlds_quarantined").Value(); got != 1 {
		t.Fatalf("index.worlds_quarantined = %d, want 1", got)
	}
	if sv.Telemetry() != tel {
		t.Fatal("the serving load did not attach the registry ctx carries")
	}
	// The quarantined world answers nothing; the survivors answer
	// identically to the clean index.
	s, sx := sv.NewScratch(), x.NewScratch()
	if c := sv.Cascade(0, 2, s, nil); len(c) != 0 || sv.NumComponents(2) != 0 || sv.Component(0, 2) != -1 {
		t.Fatalf("quarantined world answers: cascade %v", c)
	}
	for i := 0; i < worlds; i++ {
		if i == 2 {
			continue
		}
		for v := 0; v < g.NumNodes(); v++ {
			if !equal(sv.Cascade(graph.NodeID(v), i, s, nil), x.Cascade(graph.NodeID(v), i, sx, nil)) {
				t.Fatalf("world %d node %d: surviving cascade differs from eager", i, v)
			}
		}
	}
	// Sample collections skip the quarantined world rather than padding it.
	if cs := sv.Cascades(0, s); len(cs) != worlds-1 {
		t.Fatalf("Cascades returned %d samples, want %d", len(cs), worlds-1)
	}
	if _, off := sv.CascadesFlat([]graph.NodeID{0}, s); len(off)-1 != worlds-1 {
		t.Fatalf("CascadesFlat returned %d samples, want %d", len(off)-1, worlds-1)
	}
	// An index with quarantined worlds refuses to re-serialize.
	if _, err := sv.WriteTo(&bytes.Buffer{}); err == nil {
		t.Fatal("WriteTo of a quarantined index succeeded; it would silently drop worlds")
	}
	// The strict reader rejects the same file.
	if _, err := LoadFile(p, g); !errors.Is(err, blockfile.ErrCorrupt) {
		t.Fatalf("LoadFile of a block-corrupt file: err = %v, want ErrCorrupt", err)
	}
}

// TestOpenMmapEveryBitFlip flips every bit of a small v03 file and asserts
// the trichotomy the serving load promises: a flip before the blocks
// (header/directory) fails the load with a typed error, a flip inside a
// block quarantines exactly that world (queries keep working), and a flip
// in the whole-file footer, which the serving load does not compare,
// changes nothing. Never a panic, never a wrong cascade.
func TestOpenMmapEveryBitFlip(t *testing.T) {
	g, x, _, raw := v3Fixture(t, 231, 2)
	worlds := x.NumWorlds()
	blocksStart := FileKind.BlocksStart(worlds)
	dir, err := blockfile.ParseDirectory(raw[FileKind.HeaderLen():FileKind.BlocksStart(worlds)-4], worlds)
	if err != nil {
		t.Fatal(err)
	}
	worldAt := func(off int64) int {
		for i, b := range dir {
			if off >= b.Off && off < b.Off+int64(b.Len) {
				return i
			}
		}
		return -1
	}
	dirFile := t.TempDir()
	p := filepath.Join(dirFile, "flip.v3")
	s := x.NewScratch()
	for pos := range raw {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), raw...)
			data[pos] ^= 1 << bit
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			sv, err := LoadServing(context.Background(), p, g, nil)
			switch {
			case int64(pos) < blocksStart:
				if err == nil {
					t.Fatalf("flip in header/directory (byte %d bit %d) was accepted", pos, bit)
				}
				continue
			case err != nil:
				t.Fatalf("flip at byte %d bit %d failed the load: %v", pos, bit, err)
			}
			for i := 0; i < worlds; i++ {
				_ = sv.Cascade(0, i, s, nil)
			}
			want := 0
			if w := worldAt(int64(pos)); w >= 0 {
				want = 1
				if sv.Component(0, w) != -1 {
					t.Fatalf("flip in block %d (byte %d bit %d): another world was quarantined", w, pos, bit)
				}
			}
			if q := sv.QuarantinedWorlds(); q != want {
				t.Fatalf("flip at byte %d bit %d: quarantined %d worlds, want %d", pos, bit, q, want)
			}
		}
	}
}

// TestV3TruncationEveryBoundary truncates a v03 file at every structural
// boundary (and one byte either side of each) and requires both readers to
// reject it with a typed truncation/corruption error — the directory makes
// torn files detectable before any block is trusted.
func TestV3TruncationEveryBoundary(t *testing.T) {
	g, x, _, raw := v3Fixture(t, 241, 4)
	worlds := x.NumWorlds()
	dir, err := blockfile.ParseDirectory(raw[FileKind.HeaderLen():FileKind.BlocksStart(worlds)-4], worlds)
	if err != nil {
		t.Fatal(err)
	}
	boundaries := []int64{0, 8, 12, FileKind.HeaderLen(), FileKind.BlocksStart(worlds) - 4}
	for _, b := range dir {
		boundaries = append(boundaries, b.Off, b.Off+int64(b.Len))
	}
	boundaries = append(boundaries, int64(len(raw))-4)
	p := filepath.Join(t.TempDir(), "trunc.v3")
	for _, b := range boundaries {
		for _, cut := range []int64{b - 1, b, b + 1} {
			if cut < 0 || cut >= int64(len(raw)) {
				continue
			}
			data := raw[:cut]
			if _, err := Read(bytes.NewReader(data), g); err == nil {
				t.Fatalf("eager Read accepted a file truncated at byte %d", cut)
			}
			if err := os.WriteFile(p, data, 0o644); err != nil {
				t.Fatal(err)
			}
			_, err := LoadServing(context.Background(), p, g, nil)
			if err == nil {
				t.Fatalf("LoadServing accepted a file truncated at byte %d", cut)
			}
			if !errors.Is(err, blockfile.ErrTruncated) && !errors.Is(err, blockfile.ErrCorrupt) {
				t.Fatalf("truncation at byte %d: untyped error %v", cut, err)
			}
		}
	}
}

// TestRejectsUnknownMagic: SOIIDX05 is the only index format. Every reader
// rejects any other magic — a retired index version or another artifact —
// with blockfile.ErrMagic, naming the magic found and the rebuild command.
// testdata/soiidx03.idx and testdata/soiidx04.idx are real files, written
// by the retired formats' writers for testdata/soiidx03.tsv: SOIIDX03
// recorded neither graph nor model, SOIIDX04 held its worlds as fixed-width
// words.
func TestRejectsUnknownMagic(t *testing.T) {
	g, _, _, raw := v3Fixture(t, 251, 2)
	p := filepath.Join(t.TempDir(), "old.idx")
	for _, magic := range []string{"SOIIDX04", "SOIIDX03", "SOIIDX02", "SOISPH02"} {
		path, data, gg := p, append([]byte(magic), raw[len(magic):]...), g
		if magic == "SOIIDX04" || magic == "SOIIDX03" {
			path = filepath.Join("testdata", strings.ToLower(magic)+".idx")
			var err error
			if data, err = os.ReadFile(path); err != nil {
				t.Fatal(err)
			}
			if gg, _, err = graph.LoadFile(filepath.Join("testdata", "soiidx03.tsv")); err != nil {
				t.Fatal(err)
			}
		} else if err := os.WriteFile(p, data, 0o644); err != nil {
			t.Fatal(err)
		}
		_, errRead := Read(bytes.NewReader(data), gg)
		_, errFile := LoadFile(path, gg)
		_, errServing := LoadServing(context.Background(), path, gg, nil)
		rep, err := blockfile.Fsck(path, FileKind)
		if err != nil {
			t.Fatal(err)
		}
		for name, err := range map[string]error{"Read": errRead, "LoadFile": errFile, "LoadServing": errServing, "Fsck": rep.Fatal} {
			if !errors.Is(err, blockfile.ErrMagic) {
				t.Fatalf("%s of %s: err = %v, want ErrMagic", name, magic, err)
			}
			if msg := err.Error(); !strings.Contains(msg, magic) || !strings.Contains(msg, "sphere -graph g.tsv -build-index new.idx") {
				t.Fatalf("%s of %s: error %q does not name the magic and the rebuild command", name, magic, msg)
			}
		}
	}
}

// TestOpenMmapFailpoints drives the serving load's two failpoints.
func TestOpenMmapFailpoints(t *testing.T) {
	g, _, p, _ := v3Fixture(t, 261, 3)
	fault.SetActive(true)
	defer fault.SetActive(false)

	// A directory-load failure fails the load outright.
	if err := fault.Enable(fault.IndexDirLoad, fault.Failpoint{Kind: fault.KindError}); err != nil {
		t.Fatal(err)
	}
	if _, err := LoadServing(context.Background(), p, g, nil); !errors.Is(err, fault.ErrInjected) {
		t.Fatalf("armed dirload: err = %v, want injected", err)
	}
	fault.Disable(fault.IndexDirLoad)

	// A block-load failure quarantines exactly the world whose load hit it,
	// like real corruption.
	if err := fault.Enable(fault.IndexBlockFault, fault.Failpoint{Kind: fault.KindError, Times: 1}); err != nil {
		t.Fatal(err)
	}
	var quarErr error
	sv, err := LoadServing(context.Background(), p, g, func(_ int, err error) { quarErr = err })
	if err != nil {
		t.Fatal(err)
	}
	if sv.QuarantinedWorlds() != 1 || !errors.Is(quarErr, fault.ErrInjected) {
		t.Fatalf("quarantined %d worlds (err %v), want exactly the one whose load was failed", sv.QuarantinedWorlds(), quarErr)
	}
	if sv.LiveWorlds() != sv.NumWorlds()-1 {
		t.Fatalf("LiveWorlds = %d, want %d", sv.LiveWorlds(), sv.NumWorlds()-1)
	}
}
