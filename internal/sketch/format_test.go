package sketch

import (
	"bytes"
	"encoding/binary"
	"path/filepath"
	"reflect"
	"runtime"
	"testing"

	"soi/internal/fault"
	"soi/internal/graph"
)

func testSketch(t testing.TB) *Sketch {
	g := randomGraph(t, 30, 0.12, 8)
	x := buildIndex(t, g, 5, 17)
	s, err := Build(x, Options{K: 4, Seed: 23})
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestFormatRoundTrip(t *testing.T) {
	s := testSketch(t)
	var buf bytes.Buffer
	n, err := s.WriteTo(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if n != int64(buf.Len()) {
		t.Fatalf("WriteTo reported %d bytes, wrote %d", n, buf.Len())
	}
	got, err := Read(bytes.NewReader(buf.Bytes()))
	if err != nil {
		t.Fatal(err)
	}
	if got.Nodes() != s.Nodes() || got.Worlds() != s.Worlds() || got.LiveWorlds() != s.LiveWorlds() ||
		got.K() != s.K() || got.Seed() != s.Seed() || got.IndexFingerprint() != s.IndexFingerprint() {
		t.Fatalf("header mismatch after round trip: %+v vs %+v", got, s)
	}
	if !reflect.DeepEqual(got.off, s.off) || !reflect.DeepEqual(got.ranks, s.ranks) {
		t.Fatal("payload mismatch after round trip")
	}
	for v := 0; v < s.Nodes(); v++ {
		a, b := s.EstimateSphereSize(graph.NodeID(v)), got.EstimateSphereSize(graph.NodeID(v))
		if a != b {
			t.Fatalf("node %d: estimate changed across serialization: %v != %v", v, a, b)
		}
	}
}

func TestSaveLoadFile(t *testing.T) {
	s := testSketch(t)
	path := filepath.Join(t.TempDir(), "test.sketch")
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got.ranks, s.ranks) || got.IndexFingerprint() != s.IndexFingerprint() {
		t.Fatal("LoadFile does not reproduce the saved sketch")
	}
	if got.Telemetry() != nil {
		t.Fatal("loaded sketch should carry no telemetry until SetTelemetry")
	}
}

func TestSaveFileFaultInjection(t *testing.T) {
	fault.SetActive(true)
	defer fault.SetActive(false)
	if err := fault.Enable(fault.SketchSave, fault.Failpoint{Kind: fault.KindError, Times: 1}); err != nil {
		t.Fatal(err)
	}
	s := testSketch(t)
	path := filepath.Join(t.TempDir(), "test.sketch")
	if err := s.SaveFile(path); err == nil {
		t.Fatal("armed fault did not fire")
	}
	if _, err := LoadFile(path); err == nil {
		t.Fatal("failed save left a loadable file behind")
	}
	if err := s.SaveFile(path); err != nil {
		t.Fatal(err)
	}
}

// TestReadDetectsEveryBitFlip mirrors the index v03 guarantee for SOISKC01:
// a sketch is an estimator, so undetected corruption would silently
// mis-estimate rather than crash. Every single-bit corruption of a valid
// file must therefore be rejected at open — the CRC32-C footer catches the
// flips the structural validators cannot.
func TestReadDetectsEveryBitFlip(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testSketch(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := range clean {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), clean...)
			data[pos] ^= 1 << bit
			if _, err := Read(bytes.NewReader(data)); err == nil {
				t.Fatalf("bit flip at byte %d bit %d was accepted", pos, bit)
			}
		}
	}
}

// TestReadRejectsTruncation checks every proper prefix fails cleanly.
func TestReadRejectsTruncation(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testSketch(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for cut := 0; cut < len(clean); cut++ {
		if _, err := Read(bytes.NewReader(clean[:cut])); err == nil {
			t.Fatalf("truncation to %d of %d bytes was accepted", cut, len(clean))
		}
	}
}

func TestReadRejectsTrailingData(t *testing.T) {
	var buf bytes.Buffer
	if _, err := testSketch(t).WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	data := append(buf.Bytes(), 0)
	if _, err := Read(bytes.NewReader(data)); err == nil {
		t.Fatal("trailing byte after the checksum footer was accepted")
	}
}

func TestReadRejectsBadMagic(t *testing.T) {
	if _, err := Read(bytes.NewReader([]byte("SOIIDX03xxxxxxxx"))); err == nil {
		t.Fatal("foreign magic accepted")
	}
	if _, err := Read(bytes.NewReader(nil)); err == nil {
		t.Fatal("empty stream accepted")
	}
}

// TestReadTrustsNoCount pins "never trust the header": a sketch whose
// counts claim far more than its body holds is rejected after allocating on
// the order of the bytes present, not of the counts claimed.
func TestReadTrustsNoCount(t *testing.T) {
	le := binary.LittleEndian
	header := func(nodes, k uint32) []byte {
		b := append([]byte(nil), sketchMagic[:]...)
		for _, u := range []uint32{nodes, 1, 1, k} {
			b = le.AppendUint32(b, u)
		}
		return le.AppendUint64(le.AppendUint64(b, 1), 2) // seed, indexFP
	}
	// 100 nodes whose offsets each claim 1<<20 ranks, and no ranks.
	ranks := header(100, 1<<20)
	for v := uint32(0); v <= 100; v++ {
		ranks = le.AppendUint32(ranks, v<<20)
	}
	for _, tc := range []struct {
		name string
		data []byte
	}{
		{"nodes", append(header(1<<27, 2), make([]byte, 64-sketchHeaderLen)...)},
		{"ranks", ranks},
	} {
		t.Run(tc.name, func(t *testing.T) {
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			_, err := Read(bytes.NewReader(tc.data))
			runtime.ReadMemStats(&after)
			if err == nil {
				t.Fatal("accepted a sketch whose body cannot hold what its counts claim")
			}
			t.Log(err)
			if alloc, limit := after.TotalAlloc-before.TotalAlloc, 2*uint64(len(tc.data))+1<<20; alloc > limit {
				t.Fatalf("rejecting %d bytes allocated %d bytes (limit %d)", len(tc.data), alloc, limit)
			}
		})
	}
}
