package index

import (
	"bytes"
	"context"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/rng"
)

// TestReadSurvivesRandomCorruption flips random bits/bytes in a serialized
// index and requires Read to either fail cleanly or return a structurally
// valid index — never panic. (Semantic corruption that passes the structural
// checks is out of scope: keep graph and index files paired.)
func TestReadSurvivesRandomCorruption(t *testing.T) {
	g := randomGraph(t, 111, 40, 160)
	x, err := Build(context.Background(), g, Options{Samples: 4, Seed: 112, TransitiveReduction: true}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()

	r := rng.New(113)
	for trial := 0; trial < 300; trial++ {
		data := append([]byte(nil), clean...)
		// Corrupt 1-4 random bytes (skip the magic so we exercise the
		// deeper validation, not just the header check).
		for c := 0; c < 1+r.Intn(4); c++ {
			pos := 8 + r.Intn(len(data)-8)
			data[pos] ^= byte(1 + r.Intn(255))
		}
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("trial %d: Read panicked: %v", trial, p)
				}
			}()
			idx, err := Read(bytes.NewReader(data), g)
			if err != nil {
				return // clean rejection
			}
			// If it loaded, queries must not crash either.
			s := idx.NewScratch()
			for i := 0; i < idx.NumWorlds(); i++ {
				_ = idx.Cascade(0, i, s, nil)
			}
		}()
	}
}

// TestReadDetectsEveryBitFlip flips every single bit of an index file in
// turn and requires Read to reject each corrupted copy. This is
// the property the CRC32-C checksums buy: the structural validators alone
// cannot catch a flip that leaves every count and id in range (a successor
// id changed to another valid id, say), but the checksums catch all of
// them. Eager reads are strict everywhere — quarantine-and-degrade is the
// OpenMmap behavior, tested separately.
func TestReadDetectsEveryBitFlip(t *testing.T) {
	g := randomGraph(t, 116, 12, 40)
	x, err := Build(context.Background(), g, Options{Samples: 2, Seed: 117}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for pos := range clean {
		for bit := 0; bit < 8; bit++ {
			data := append([]byte(nil), clean...)
			data[pos] ^= 1 << bit
			if _, err := Read(bytes.NewReader(data), g); err == nil {
				t.Fatalf("bit flip at byte %d bit %d was accepted", pos, bit)
			}
		}
	}
}

// TestReadRejectsTrailingData checks that a stream with extra bytes after
// the checksum footer fails to load: a longer-than-parsed file means the
// artifact and the reader disagree about its structure.
func TestReadRejectsTrailingData(t *testing.T) {
	g := randomGraph(t, 116, 12, 40)
	x, err := Build(context.Background(), g, Options{Samples: 2, Seed: 117}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	if _, err := Read(bytes.NewReader(clean), g); err != nil {
		t.Fatalf("clean stream rejected: %v", err)
	}
	data := append(append([]byte(nil), clean...), 0x00)
	if _, err := Read(bytes.NewReader(data), g); err == nil {
		t.Fatal("accepted trailing data after the payload")
	}
}

// TestReadSurvivesTruncation checks every truncation point fails cleanly.
func TestReadSurvivesTruncation(t *testing.T) {
	g := randomGraph(t, 114, 20, 60)
	x, err := Build(context.Background(), g, Options{Samples: 2, Seed: 115}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	clean := buf.Bytes()
	for cut := 0; cut < len(clean); cut += 7 {
		func() {
			defer func() {
				if p := recover(); p != nil {
					t.Fatalf("cut %d: panic: %v", cut, p)
				}
			}()
			if _, err := Read(bytes.NewReader(clean[:cut]), g); err == nil {
				t.Fatalf("cut %d: truncated stream accepted", cut)
			}
		}()
	}
}
