package index

import (
	"bytes"
	"context"
	"encoding/binary"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/rng"
	"soi/internal/worlds"
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
// decoder every reader shares: a record whose component count, successor
// total or degrees claim far more than the block holds is rejected after
// allocating on the order of the bytes present, not of the counts claimed.
// (The node count is the caller's: the graph's, checked against the file
// header before any block.) The blocks carry a matching CRC, as a forged
// file would, so the decode itself is tested. Fsck has no graph, so it
// trusts the header's node count for nothing: a valid one-component world
// of 2^27 nodes packs its ids in zero bits and verifies from 3 bytes.
func TestDecodeTrustsNoCount(t *testing.T) {
	const big = 1 << 18
	// forge writes big components of one node each, packed at 18 bits,
	// claiming total successors, then the given degree bytes.
	forge := func(total uint64, degrees []byte) []byte {
		b := binary.AppendUvarint(binary.AppendUvarint(nil, big), total)
		ids := len(b)
		b = append(b, make([]byte, packedLen(big, big))...)
		w := compBits(big)
		for v := uint64(0); v < big; v++ {
			for k := uint(0); k < w; k++ {
				if v>>k&1 != 0 {
					bit := v*uint64(w) + uint64(k)
					b[ids+int(bit/8)] |= 1 << (bit % 8)
				}
			}
		}
		return append(b, degrees...)
	}
	// Component 0 claims every other one as a successor; the rest claim
	// none.
	greedy := append(binary.AppendUvarint(nil, big-1), make([]byte, big-1)...)
	cases := []struct {
		name  string
		nodes uint32
		block []byte
		why   string
	}{
		// 1<<27 nodes and 1<<26 components over 64 bytes.
		{"comps", 1 << 27, append(binary.AppendUvarint(binary.AppendUvarint(nil, 1<<26), 0), make([]byte, 56)...), "truncated"},
		// Every id present, but no degree after them.
		{"degree words", big, forge(0, nil), "truncated"},
		// Every id and degree present, but the total claims successors
		// the block does not hold.
		{"successor total", big, forge(1<<30, make([]byte, big)), "truncated"},
		// Every id and degree present, but the first degree claims
		// successors beyond the total.
		{"degree", big, forge(0, greedy), "degree"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			comps, _ := binary.Uvarint(tc.block)
			b := blockfile.BlockInfo{Len: uint32(len(tc.block)), CRC: blockfile.Checksum(tc.block), Aux: uint32(comps)}
			var err error
			alloc := allocDuring(func() { err = verifyBlock(tc.block, b, tc.nodes, 0, new(worldEntry), new([]int32)) })
			if err == nil || !strings.Contains(err.Error(), tc.why) {
				t.Fatalf("a block that cannot hold what it claims: err = %v, want %q", err, tc.why)
			}
			if limit := 2*uint64(len(tc.block)) + 1<<20; alloc > limit {
				t.Fatalf("rejecting a %d-byte block allocated %d bytes (limit %d)", len(tc.block), alloc, limit)
			}
			// The checkpoint payload has no directory or CRC in front of
			// the decoder at all.
			payload := append(binary.LittleEndian.AppendUint32(nil, 0), tc.block...)
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
	t.Run("fsck", func(t *testing.T) {
		rec := binary.AppendUvarint(binary.AppendUvarint(nil, 1), 0) // comps, total
		rec = append(rec, 0)                                         // component 0's degree
		var file bytes.Buffer
		meta := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, 0), uint32(worlds.IC))
		if _, _, err := FileKind.Write(&file, 1<<27, meta, 1, func(buf []byte, i int) ([]byte, uint32) { return append(buf, rec...), 1 }); err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(t.TempDir(), "big.idx")
		if err := os.WriteFile(p, file.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		var rep *blockfile.Report
		var err error
		alloc := allocDuring(func() { rep, err = blockfile.Fsck(p, FileKind) })
		if err != nil || !rep.Clean() {
			t.Fatalf("Fsck of a valid %d-byte file: err %v, report %+v", file.Len(), err, rep)
		}
		if limit := 2*uint64(file.Len()) + 1<<20; alloc > limit {
			t.Fatalf("Fsck of a %d-byte file claiming 2^27 nodes allocated %d bytes (limit %d)", file.Len(), alloc, limit)
		}
	})
}
