package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"errors"
	"math"
	"path/filepath"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// sweepRecord encodes one checkpoint payload record by hand: node id, set
// length, members, both costs, and both timings.
func sweepRecord(id uint32, set []int32, sampleCost, expectedCost float64) []byte {
	var buf bytes.Buffer
	binary.Write(&buf, binary.LittleEndian, []uint32{id, uint32(len(set))})
	binary.Write(&buf, binary.LittleEndian, set)
	binary.Write(&buf, binary.LittleEndian, []float64{sampleCost, expectedCost})
	binary.Write(&buf, binary.LittleEndian, []int64{1000, 0})
	return buf.Bytes()
}

// TestComputeAllRejectsCorruptSphere: a checkpoint whose CRC is valid but
// whose sphere record the store would reject must abort the resume with
// checkpoint.ErrCorrupt, not flow into the result (and then into a store
// that LoadSpheres refuses).
func TestComputeAllRejectsCorruptSphere(t *testing.T) {
	g := paperGraph(t)
	x := buildIndex(t, g, 20, 51)
	opts := Options{}
	for _, tc := range []struct {
		name   string
		record []byte
	}{
		{"out-of-range member", sweepRecord(0, []int32{10, 1}, 0.5, -1)},
		{"unsorted set", sweepRecord(0, []int32{3, 1}, 0.5, -1)},
		{"duplicate member", sweepRecord(0, []int32{1, 1}, 0.5, -1)},
		{"NaN sample cost", sweepRecord(0, []int32{0}, math.NaN(), -1)},
		{"expected cost above 1", sweepRecord(0, []int32{0}, 0.5, 2)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "sweep.ckpt")
			done := checkpoint.NewBitmap(g.NumNodes())
			done.Set(0)
			if err := checkpoint.Save(path, sweepFingerprint(x, opts), done, tc.record); err != nil {
				t.Fatal(err)
			}
			_, err := ComputeAll(context.Background(), x, opts, checkpoint.Config{Path: path})
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("err = %v, want checkpoint.ErrCorrupt", err)
			}
		})
	}
}

// FuzzSweepPayload feeds arbitrary payloads to the sweep checkpoint decoder
// for a done-bitmap chosen by mask: it must never panic, and any payload it
// accepts must yield spheres the sphere store round-trips
// (SaveSpheres → LoadSpheres).
func FuzzSweepPayload(f *testing.F) {
	g := paperGraph(f)
	n := g.NumNodes()
	results := computeAll(f, buildIndex(f, g, 30, 41), Options{CostSamples: 40, CostSeed: 42})
	all := uint64(1)<<n - 1
	full, err := encodeSweepPayload(results, bitmapOf(all, n))
	if err != nil {
		f.Fatal(err)
	}
	f.Add(all, full)
	f.Add(uint64(1), sweepRecord(0, []int32{10, 1}, 0.5, -1))    // out-of-range member
	f.Add(uint64(1), sweepRecord(0, []int32{3, 1}, 0.5, -1))     // unsorted set
	f.Add(uint64(1), sweepRecord(0, []int32{0}, math.NaN(), -1)) // NaN cost
	f.Add(all, full[:len(full)-5])                               // truncated record
	f.Fuzz(func(t *testing.T, mask uint64, payload []byte) {
		mask &= all
		out := make([]Result, n)
		st := &checkpoint.State{Done: bitmapOf(mask, n), Payload: payload}
		if err := decodeSweepPayload(st, n, out); err != nil {
			if !errors.Is(err, checkpoint.ErrCorrupt) {
				t.Fatalf("rejection %v does not match checkpoint.ErrCorrupt", err)
			}
			return
		}
		// Unreached nodes carry no sphere; give them an empty one so the
		// store (which wants every node) can hold the resumed ones.
		for v := range out {
			if out[v].Seeds == nil {
				out[v] = Result{Seeds: []graph.NodeID{graph.NodeID(v)}, ExpectedCost: -1}
			}
		}
		var buf bytes.Buffer
		if err := SaveSpheres(&buf, 0, out); err != nil {
			t.Fatalf("accepted payload does not save: %v", err)
		}
		if _, _, err := LoadSpheres(&buf); err != nil {
			t.Fatalf("accepted payload does not load back: %v", err)
		}
	})
}

func bitmapOf(mask uint64, n int) *checkpoint.Bitmap {
	b := checkpoint.NewBitmap(n)
	for i := 0; i < n; i++ {
		if mask&(1<<i) != 0 {
			b.Set(i)
		}
	}
	return b
}
