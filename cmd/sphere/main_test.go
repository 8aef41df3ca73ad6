package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/cliutil"
	"soi/internal/gen"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/probs"
	"soi/internal/router"
	"soi/internal/telemetry"
)

// noTel is the disabled telemetry lifecycle every non-telemetry test runs
// under — the same object main builds when neither flag is given.
func noTel() *cliutil.RunTelemetry {
	return &cliutil.RunTelemetry{Tool: "sphere"}
}

func writeTestGraph(t *testing.T, dir string) string {
	t.Helper()
	topo, err := gen.Generate(gen.Config{Model: "er", N: 40, M: 120, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	g, err := probs.WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.tsv")
	if err := graph.SaveFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	return path
}

func TestRunSingleNode(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	out := filepath.Join(dir, "out.txt")
	if err := run(context.Background(), gp, 5, false, 50, 50, 1, "prefix", "", "", "", 0, false, out, "", 2, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	s := string(data)
	if !strings.Contains(s, "node 5:") || !strings.Contains(s, "stability=") {
		t.Fatalf("unexpected output:\n%s", s)
	}
	if !strings.Contains(s, "take-off probability") {
		t.Fatalf("modes missing:\n%s", s)
	}
}

func TestRunAllWithStore(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	out := filepath.Join(dir, "out.txt")
	store := filepath.Join(dir, "spheres.bin")
	if err := run(context.Background(), gp, -1, true, 30, 0, 1, "prefix", "", "", "", 0, false, out, store, 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(store); err != nil {
		t.Fatalf("store not written: %v", err)
	}
}

func TestRunIndexRoundTrip(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	idx := filepath.Join(dir, "idx.bin")
	if err := run(context.Background(), gp, -1, false, 30, 0, 1, "prefix", "", idx, "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(dir, "out.txt")
	if err := run(context.Background(), gp, 3, false, 0, 0, 1, "prefix", idx, "", "", 0, false, out, "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	data, _ := os.ReadFile(out)
	if !strings.Contains(string(data), "node 3:") {
		t.Fatalf("unexpected output: %s", data)
	}
}

func TestRunLTModel(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir) // WC weights: valid LT input
	out := filepath.Join(dir, "out.txt")
	if err := run(context.Background(), gp, 2, false, 30, 20, 1, "prefix", "", "", "", 0, true, out, "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
}

// TestRunCheckpointDeadline: a deadline-degraded -all run exits cleanly
// (partial notice on stderr, not an error) and keeps its checkpoints; a
// rerun with the same flags and no deadline resumes and completes, deleting
// them.
func TestRunCheckpointDeadline(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	out := filepath.Join(dir, "out.txt")
	ckpt := filepath.Join(dir, "run.ckpt")
	// 1ns: the deadline has passed by the time sampling starts, so the run
	// degrades immediately but still completes at least one unit per phase.
	if err := run(context.Background(), gp, -1, true, 40, 0, 1, "prefix", "", "", "", 0, false, out, "", 0, 0, "", ckpt, 1, noTel()); err != nil {
		t.Fatalf("degraded run failed hard: %v", err)
	}
	if _, err := os.Stat(ckpt + ".all"); err != nil {
		t.Fatalf("sweep checkpoint missing after degraded run: %v", err)
	}
	if err := run(context.Background(), gp, -1, true, 40, 0, 1, "prefix", "", "", "", 0, false, out, "", 0, 0, "", ckpt, 0, noTel()); err != nil {
		t.Fatalf("resumed run: %v", err)
	}
	for _, suffix := range []string{".idx", ".all"} {
		if _, err := os.Stat(ckpt + suffix); err == nil {
			t.Fatalf("checkpoint %s survived a complete run", suffix)
		}
	}
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), "node 0:") {
		t.Fatalf("resumed output incomplete:\n%s", data)
	}
}

// TestRunStatsJSON runs sphere under an enabled telemetry lifecycle and
// checks the flushed report: schema, run info, the counters a sweep must
// have produced, and the top-level phase spans whose seconds e2ebench sums
// per build pass (index.build, core.compute_all, sketch.build).
func TestRunStatsJSON(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	idx := filepath.Join(dir, "g.idx")
	if err := run(context.Background(), gp, -1, false, 30, 0, 1, "prefix", "", idx, "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	// The report's graph hash is the graph's fingerprint, whether the run
	// built its index, loaded it (taking the fingerprint the load checked)
	// or partitioned the graph.
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	graphHash := fmt.Sprintf("%016x", checkpoint.NewHasher().Graph(g).Sum())
	cases := []struct {
		name  string
		run   func(ctx context.Context, rt *cliutil.RunTelemetry) error
		spans []string // must each be top-level with seconds > 0
	}{
		{"sweep", func(ctx context.Context, rt *cliutil.RunTelemetry) error {
			return run(ctx, gp, -1, true, 30, 0, 1, "prefix", "", "", "", 0, false, filepath.Join(dir, "out.txt"), "", 0, 0, "", "", 0, rt)
		}, []string{"index.build", "core.compute_all"}},
		{"shards", func(ctx context.Context, rt *cliutil.RunTelemetry) error {
			return run(ctx, gp, -1, false, 30, 0, 1, "prefix", "", "", "", 0, false, "", "", 0, 2, filepath.Join(dir, "net"), "", 0, rt)
		}, []string{"index.build", "core.compute_all"}},
		{"sketch", func(ctx context.Context, rt *cliutil.RunTelemetry) error {
			return run(ctx, gp, -1, false, 30, 0, 1, "prefix", idx, "", filepath.Join(dir, "g.skc"), 0, false, "", "", 0, 0, "", "", 0, rt)
		}, []string{"sketch.build"}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			stats := filepath.Join(dir, tc.name+"-stats.json")
			ctx, rt, err := cliutil.StartTelemetry(context.Background(), "sphere", "", stats)
			if err != nil {
				t.Fatal(err)
			}
			if err := tc.run(ctx, rt); err != nil {
				t.Fatal(err)
			}
			rt.Flush()
			b, err := os.ReadFile(stats)
			if err != nil {
				t.Fatal(err)
			}
			var rep telemetry.Report
			if err := json.Unmarshal(b, &rep); err != nil {
				t.Fatalf("stats file is not valid JSON: %v", err)
			}
			if rep.Schema != telemetry.ReportSchema {
				t.Fatalf("schema = %q", rep.Schema)
			}
			if rep.RunInfo.Tool != "sphere" || rep.RunInfo.GraphHash != graphHash {
				t.Fatalf("run info incomplete or graph hash not %s: %+v", graphHash, rep.RunInfo)
			}
			if tc.name == "sweep" {
				if rep.RunInfo.SamplesAchieved != 30 {
					t.Fatalf("samples achieved = %d", rep.RunInfo.SamplesAchieved)
				}
				if rep.Counters["worlds.sampled"] != 30 {
					t.Fatalf("worlds.sampled = %d", rep.Counters["worlds.sampled"])
				}
				if rep.Counters["core.spheres_computed"] != 40 {
					t.Fatalf("core.spheres_computed = %d", rep.Counters["core.spheres_computed"])
				}
			}
			seconds := map[string]float64{}
			for _, sp := range rep.Spans {
				seconds[sp.Name] += sp.Seconds
			}
			for _, name := range tc.spans {
				if seconds[name] <= 0 {
					t.Errorf("top-level span %q missing or zero: %+v", name, rep.Spans)
				}
			}
		})
	}
}

func TestRunErrors(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	if err := run(context.Background(), "", 1, false, 10, 0, 1, "prefix", "", "", "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err == nil {
		t.Error("accepted missing graph")
	}
	if err := run(context.Background(), gp, 1, false, 10, 0, 1, "nope", "", "", "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err == nil {
		t.Error("accepted unknown algorithm")
	}
	if err := run(context.Background(), gp, 999, false, 10, 0, 1, "prefix", "", "", "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err == nil {
		t.Error("accepted out-of-range node")
	}
	if err := run(context.Background(), gp, -1, false, 10, 0, 1, "prefix", "", "", "", 0, false, "", "", 0, 0, "", "", 0, noTel()); err == nil {
		t.Error("accepted neither -node nor -all")
	}
}

// TestRunRefusesUnservableSketchK: below bound.MinBottomK the bottom-k
// bound soid would serve lies outside its derivation, so -sketch-k refuses
// such a k before any work and names the smallest k it accepts.
func TestRunRefusesUnservableSketchK(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	idx, skc := filepath.Join(dir, "g.idx"), filepath.Join(dir, "g.skc")
	kmin := bound.MinBottomK(bound.ServingDelta)
	for _, k := range []int{8, kmin - 1} {
		err := run(context.Background(), gp, -1, false, 30, 0, 1, "prefix", "", idx, skc, k, false, "", "", 0, 0, "", "", 0, noTel())
		if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("k >= %d", kmin)) {
			t.Fatalf("-sketch-k %d: err %v, want a refusal naming k >= %d", k, err, kmin)
		}
		if _, err := os.Stat(skc); err == nil {
			t.Fatalf("-sketch-k %d wrote a sketch", k)
		}
	}
	if err := run(context.Background(), gp, -1, false, 30, 0, 1, "prefix", "", idx, skc, kmin, false, "", "", 0, 0, "", "", 0, noTel()); err != nil {
		t.Fatalf("-sketch-k %d: %v", kmin, err)
	}
}

// TestRunShardsManifestFingerprints: the -shards manifest records, for each
// shard, the fingerprint of the index file soid will serve — the same value
// soid computes when it loads that file.
func TestRunShardsManifestFingerprints(t *testing.T) {
	dir := t.TempDir()
	gp := writeTestGraph(t, dir)
	prefix := filepath.Join(dir, "net")
	if err := run(context.Background(), gp, -1, false, 30, 0, 1, "prefix", "", "", "", 0, false, "", "", 0, 2, prefix, "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
	topo, err := router.LoadTopology(prefix + "-topology.json")
	if err != nil {
		t.Fatal(err)
	}
	if len(topo.Shards) != 2 {
		t.Fatalf("manifest has %d shards, want 2", len(topo.Shards))
	}
	for _, sh := range topo.Shards {
		g, _, err := graph.LoadFile(filepath.Join(dir, sh.GraphFile))
		if err != nil {
			t.Fatal(err)
		}
		x, err := index.LoadFile(filepath.Join(dir, sh.IndexFile), g)
		if err != nil {
			t.Fatal(err)
		}
		if got := fmt.Sprintf("%016x", x.Fingerprint()); got != sh.IndexFingerprint {
			t.Fatalf("shard %d: manifest index_fingerprint %s, loaded file fingerprints to %s", sh.ID, sh.IndexFingerprint, got)
		}
		if got := fmt.Sprintf("%016x", x.GraphFingerprint()); got != sh.GraphFingerprint {
			t.Fatalf("shard %d: manifest graph_fingerprint %s, index file records %s", sh.ID, sh.GraphFingerprint, got)
		}
	}
}
