package core

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"slices"
	"testing"

	"soi/internal/blockfile"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/jaccard"
)

// quarantinedCopy serializes x, flips a byte inside world w's block and
// reloads the file with index.LoadServing, which quarantines world w.
func quarantinedCopy(t *testing.T, x *index.Index, w int) *index.Index {
	t.Helper()
	var buf bytes.Buffer
	if _, err := x.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	d := buf.Bytes()
	n := int(binary.LittleEndian.Uint32(d[12:16]))
	dir, err := blockfile.ParseDirectory(d[index.FileKind.HeaderLen():index.FileKind.BlocksStart(n)-4], n)
	if err != nil {
		t.Fatal(err)
	}
	d[dir[w].Off+int64(dir[w].Len)/2] ^= 0xFF
	p := filepath.Join(t.TempDir(), "q.idx")
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	mx, err := index.LoadServing(context.Background(), p, x.Graph(), nil)
	if err != nil {
		t.Fatal(err)
	}
	return mx
}

// TestFlatPrefixMatchesSetPath computes every node's sphere, and some seed
// sets', through the default flat path (CascadesFlat into
// jaccard.PrefixFlat, one reused scratch) and through the per-world sorted
// sets handed to jaccard.Prefix, which the jaccard package pins to the
// original map-and-sort implementation. Sets, sample costs and world counts
// must agree bit for bit, on a clean index and on one with a quarantined
// world.
func TestFlatPrefixMatchesSetPath(t *testing.T) {
	g := sparseGraph(t, 3, 120)
	clean := buildIndex(t, g, 48, 9)
	for name, x := range map[string]*index.Index{"clean": clean, "quarantined": quarantinedCopy(t, clean, 5)} {
		s := x.NewScratch()
		check := func(seeds []graph.NodeID) {
			t.Helper()
			got := computeUncanceled(x, seeds, Options{}, s)
			samples := x.CascadesFromSet(seeds, x.NewScratch())
			want := jaccard.Prefix(samples)
			if !slices.Equal(got.Set, want.Set) ||
				math.Float64bits(got.SampleCost) != math.Float64bits(want.Cost) ||
				got.Worlds != len(samples) {
				t.Fatalf("%s seeds %v: set %v cost %v worlds %d, set path %v %v %d",
					name, seeds, got.Set, got.SampleCost, got.Worlds, want.Set, want.Cost, len(samples))
			}
		}
		for v := 0; v < g.NumNodes(); v++ {
			check([]graph.NodeID{graph.NodeID(v)})
		}
		for v := 0; v+2 < g.NumNodes(); v += 7 {
			check([]graph.NodeID{graph.NodeID(v), graph.NodeID(v + 2), graph.NodeID(v + 1)})
		}
		if name == "quarantined" && x.LiveWorlds() != clean.NumWorlds()-1 {
			t.Fatalf("%d live worlds, want %d", x.LiveWorlds(), clean.NumWorlds()-1)
		}
	}
}
