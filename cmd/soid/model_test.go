package main

import (
	"context"
	"errors"
	"fmt"
	"log"
	"math"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"soi"
	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/worlds"
)

// startupErr runs soid with args and returns the error that ends its
// startup. A soid that turns ready instead is drained and fails the test.
func startupErr(t *testing.T, args ...string) error {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(parse(t, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain-timeout", "5s")...))
	}()
	for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); {
		select {
		case err := <-done:
			return err
		case <-time.After(20 * time.Millisecond):
		}
		b, err := os.ReadFile(addrFile)
		if err != nil {
			continue
		}
		if resp, err := http.Get("http://" + strings.TrimSpace(string(b)) + "/readyz"); err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				stopRun(t, done)
				t.Fatalf("soid %v started serving", args)
			}
		}
	}
	t.Fatalf("soid %v neither refused to start nor turned ready", args)
	return nil
}

// TestRunServesTheIndexModel: soid takes the model from the index file. Over
// an LT-built index, with no model flag, /v1/stability equals the LT
// held-out estimate at the query's seed (and not the IC one), and the
// "serving on" line names the model.
func TestRunServesTheIndexModel(t *testing.T) {
	// A ring with chords: every node has two in-edges weighing 0.9 in all,
	// a valid LT weighting. With one in-edge per node the lazy LT choice
	// and the IC coin would draw the same cascades.
	gp := filepath.Join(t.TempDir(), "g.tsv")
	var gb strings.Builder
	for i := 0; i < 10; i++ {
		fmt.Fprintf(&gb, "%d\t%d\t0.6\n%d\t%d\t0.3\n", i, (i+1)%10, i, (i+3)%10)
	}
	if err := os.WriteFile(gp, []byte(gb.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(context.Background(), g, index.Options{Samples: 30, Seed: 1, Model: worlds.LT}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "lt.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}

	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	addr, done := startRun(t, "-graph", gp, "-index", p)
	defer stopRun(t, done)

	const samples = 400
	seeds := []graph.NodeID{0, 4}
	code, body := getJSON(t, addr, fmt.Sprintf("/v1/stability?seeds=0,4&samples=%d", samples))
	if code != 200 {
		t.Fatalf("stability: status %d: %v", code, body)
	}
	set := core.ComputeFromSet(x, seeds, core.Options{}).Set
	seed := checkpoint.NewHasher().Uint64(1).Nodes(seeds).Sum() // the server's per-query seed at -seed 1
	estimate := func(m worlds.Model) float64 {
		cost, _, err := core.EstimateCost(context.Background(), g, seeds, set, samples, seed, m, checkpoint.Budget{}, nil)
		if err != nil {
			t.Fatal(err)
		}
		return cost
	}
	lt, ic := estimate(worlds.LT), estimate(worlds.IC)
	if lt == ic {
		t.Fatalf("LT and IC estimates coincide (%v): the fixture cannot tell the models apart", lt)
	}
	if got := body["stability"].(float64); math.Abs(got-lt) > 1e-12 {
		t.Fatalf("stability %v, want the LT estimate %v (IC would be %v)", got, lt, ic)
	}
	if !strings.Contains(logs.String(), " model=LT ") {
		t.Fatalf("serving line lacks model=LT:\n%s", logs.String())
	}
}

// TestRunRefusesOtherGraph: an index sampled from one graph refuses to serve
// next to another of the same node count, naming both fingerprints.
func TestRunRefusesOtherGraph(t *testing.T) {
	gp := writeTestGraph(t)
	ip := writeTestIndex(t, gp)
	data, err := os.ReadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	other := filepath.Join(t.TempDir(), "other.tsv")
	if err := os.WriteFile(other, []byte(strings.Replace(string(data), "9\t0\t0.5", "9\t0\t0.25", 1)), 0o644); err != nil {
		t.Fatal(err)
	}
	var fps []string
	for _, path := range []string{gp, other} {
		g, _, err := graph.LoadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fps = append(fps, fmt.Sprintf("%016x", soi.Fingerprint(g)))
	}
	err = startupErr(t, "-graph", other, "-index", ip)
	if err == nil || !strings.Contains(err.Error(), fps[0]) || !strings.Contains(err.Error(), fps[1]) {
		t.Fatalf("err %v, want a refusal naming graph fingerprints %v", err, fps)
	}
}

// TestRunRefusesSOIIDX03: an index in a retired format — SOIIDX03, which
// recorded neither graph nor model, or SOIIDX04, whose worlds were
// fixed-width words — refuses startup naming the rebuild command.
func TestRunRefusesSOIIDX03(t *testing.T) {
	dir := filepath.Join("..", "..", "internal", "index", "testdata")
	for _, file := range []string{"soiidx03.idx", "soiidx04.idx"} {
		err := startupErr(t, "-graph", filepath.Join(dir, "soiidx03.tsv"), "-index", filepath.Join(dir, file))
		if !errors.Is(err, blockfile.ErrMagic) || !strings.Contains(err.Error(), "sphere -graph g.tsv -build-index new.idx") {
			t.Fatalf("%s: err %v, want ErrMagic naming the rebuild command", file, err)
		}
	}
}
