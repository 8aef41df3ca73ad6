package main

import (
	"context"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"soi"
	"soi/internal/blockfile"
	"soi/internal/graph"
)

// stabilityOf runs sphere for one node with held-out costs and returns the
// stability it reports.
func stabilityOf(t *testing.T, gp, indexPath string, samples int, lt bool) string {
	t.Helper()
	out := filepath.Join(t.TempDir(), "out.txt")
	if err := run(context.Background(), gp, 2, false, samples, 200, 1, "prefix", indexPath, "", "", 0, lt, out, "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	m := regexp.MustCompile(`stability=(\S+)`).FindSubmatch(data)
	if m == nil {
		t.Fatalf("no stability in output:\n%s", data)
	}
	return string(m[1])
}

// TestRunIndexModelApplies: -lt picks the model of the index a run builds;
// with -index the file's model applies without the flag, and a -lt that
// contradicts an IC file is an error.
func TestRunIndexModelApplies(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir) // WC weights: valid LT input
	ltIdx, icIdx := filepath.Join(dir, "lt.idx"), filepath.Join(dir, "ic.idx")
	for path, lt := range map[string]bool{ltIdx: true, icIdx: false} {
		if err := run(context.Background(), gp, -1, false, 30, 0, 1, "prefix", "", path, "", 0, lt, "", "", 0, 0, "", "", 0, noTel()); err != nil {
			t.Fatal(err)
		}
	}
	built := stabilityOf(t, gp, "", 30, true)
	if loaded := stabilityOf(t, gp, ltIdx, 0, false); loaded != built {
		t.Fatalf("-index of an LT file without -lt: stability %s, want the LT build's %s", loaded, built)
	}
	if ic := stabilityOf(t, gp, icIdx, 0, false); ic == built {
		t.Fatalf("IC and LT files report the same stability %s: the fixture cannot tell the models apart", ic)
	}
	err := run(context.Background(), gp, 2, false, 0, 0, 1, "prefix", icIdx, "", "", 0, true, "", "", 0, 0, "", "", 0, noTel())
	if err == nil || !strings.Contains(err.Error(), "-lt contradicts") || !strings.Contains(err.Error(), "IC") {
		t.Fatalf("-lt over an IC index: err %v, want a contradiction naming IC", err)
	}
}

// TestRunIndexRefusesOtherGraph: -index next to a graph other than the one
// the file was sampled from (same nodes and edges, one probability changed)
// is refused, naming both graph fingerprints.
func TestRunIndexRefusesOtherGraph(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	idx := filepath.Join(dir, "g.idx")
	if err := run(context.Background(), gp, -1, false, 20, 0, 1, "prefix", "", idx, "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	g, orig, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	changed := false
	other, err := g.WithProbs(func(u, v graph.NodeID, p float64) float64 {
		if !changed {
			changed = true
			return p / 2
		}
		return p
	})
	if err != nil {
		t.Fatal(err)
	}
	op := filepath.Join(dir, "other.tsv")
	if err := graph.SaveFile(op, other, orig); err != nil {
		t.Fatal(err)
	}
	reloaded, _, err := graph.LoadFile(op)
	if err != nil {
		t.Fatal(err)
	}
	err = run(context.Background(), op, 2, false, 0, 0, 1, "prefix", idx, "", "", 0, false, "", "", 0, 0, "", "", 0, noTel())
	for _, fp := range []uint64{soi.Fingerprint(g), soi.Fingerprint(reloaded)} {
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("%016x", fp)) {
			t.Fatalf("err %v, want a refusal naming graph fingerprint %016x", err, fp)
		}
	}
}

// TestRunIndexRefusesSOIIDX03: an index in a retired format (SOIIDX03 or
// SOIIDX04) is refused with the command that rebuilds it.
func TestRunIndexRefusesSOIIDX03(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "index", "testdata")
	for _, file := range []string{"soiidx03.idx", "soiidx04.idx"} {
		err := run(context.Background(), filepath.Join(dir, "soiidx03.tsv"), 2, false, 0, 0, 1, "prefix",
			filepath.Join(dir, file), "", "", 0, false, "", "", 0, 0, "", "", 0, noTel())
		if !errors.Is(err, blockfile.ErrMagic) || !strings.Contains(err.Error(), "sphere -graph g.tsv -build-index new.idx") {
			t.Fatalf("%s: err %v, want ErrMagic naming the rebuild command", file, err)
		}
	}
}
