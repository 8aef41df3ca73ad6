package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"runtime"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/rng"
)

// TestReadSurvivesRandomCorruption flips random bits/bytes in a serialized
// index and requires Read to either fail cleanly or return a structurally
// valid index — never panic. (Semantic corruption that passes the structural
// checks is out of scope: keep graph and index files paired.)
func TestReadSurvivesRandomCorruption(t *testing.T) {
	g := randomGraph(t, 111, 40, 160)
	x, err := Build(context.Background(), g, Options{Samples: 4, Seed: 112}, checkpoint.Config{})
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
// them. Read is strict everywhere — quarantine-and-degrade is the
// LoadServing behavior, tested separately.
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

// allocDuring returns the bytes f allocated on the heap.
func allocDuring(f func()) uint64 {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	f()
	runtime.ReadMemStats(&after)
	return after.TotalAlloc - before.TotalAlloc
}

// TestDecodeTrustsNoCount pins "never trust the header" for the world
// decoder every reader shares: a block whose component or degree words
// claim far more than the block holds is rejected after allocating on the
// order of the bytes present, not of the counts claimed. The blocks carry a
// matching CRC, as a forged file would, so the decode itself is tested.
func TestDecodeTrustsNoCount(t *testing.T) {
	const big = 1 << 18
	le := binary.LittleEndian
	forge := func(nodes, comps uint32, withDegrees bool) []byte {
		b := le.AppendUint32(nil, comps)
		for v := uint32(0); v < nodes; v++ {
			b = le.AppendUint32(b, v%comps)
		}
		if withDegrees {
			b = le.AppendUint32(b, comps) // component 0 claims every other as successor
			for c := uint32(1); c < comps; c++ {
				b = le.AppendUint32(b, 0)
			}
		}
		return b
	}
	cases := []struct {
		name  string
		nodes uint32
		block []byte
	}{
		// 1<<27 nodes and 1<<26 components over 64 bytes.
		{"comps", 1 << 27, append(le.AppendUint32(nil, 1<<26), make([]byte, 60)...)},
		// A full comp array, but no degree words after it.
		{"degree words", big, forge(big, big, false)},
		// Every degree word present, but the first claims successors the
		// block does not hold.
		{"degree", big, forge(big, big, true)},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			b := blockfile.BlockInfo{Len: uint32(len(tc.block)), CRC: blockfile.Checksum(tc.block), Aux: le.Uint32(tc.block)}
			var err error
			alloc := allocDuring(func() { _, err = verifyBlock(tc.block, b, tc.nodes, 0) })
			if err == nil {
				t.Fatal("accepted a block that cannot hold what it claims")
			}
			if limit := 2*uint64(len(tc.block)) + 1<<20; alloc > limit {
				t.Fatalf("rejecting a %d-byte block allocated %d bytes (limit %d)", len(tc.block), alloc, limit)
			}
			// The checkpoint payload has no directory or CRC in front of
			// the decoder at all.
			payload := append(le.AppendUint32(nil, 0), tc.block...)
			done := checkpoint.NewBitmap(1)
			done.Set(0)
			alloc = allocDuring(func() {
				err = decodeBuildPayload(&checkpoint.State{Done: done, Payload: payload}, tc.nodes, make([]worldEntry, 1))
			})
			if err == nil {
				t.Fatal("checkpoint payload: accepted a record that cannot hold what it claims")
			}
			if limit := 2*uint64(len(payload)) + 1<<20; alloc > limit {
				t.Fatalf("checkpoint payload: rejecting %d bytes allocated %d bytes (limit %d)", len(payload), alloc, limit)
			}
		})
	}
}
