package main

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/cliutil"
	"soi/internal/core"
	"soi/internal/gen"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/probs"
	"soi/internal/telemetry"
)

// noTel is the disabled telemetry lifecycle main builds when neither
// -debug-addr nor -stats-json is given.
func noTel() *cliutil.RunTelemetry {
	return &cliutil.RunTelemetry{Tool: "infmax"}
}

func writeTestGraph(t *testing.T, dir string) (string, *graph.Graph) {
	t.Helper()
	topo, err := gen.Generate(gen.Config{Model: "er", N: 40, M: 120, Seed: 2})
	if err != nil {
		t.Fatal(err)
	}
	g, err := probs.Fixed(topo, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, "g.tsv")
	if err := graph.SaveFile(path, g, nil); err != nil {
		t.Fatal(err)
	}
	return path, g
}

func TestRunSingleMethods(t *testing.T) {
	dir := t.TempDir()
	gp, _ := writeTestGraph(t, dir)
	for _, m := range []string{"tc", "std", "rr", "degree", "degreediscount", "random"} {
		if err := run(context.Background(), gp, 3, m, false, 30, 30, 1, "", "", 0, noTel()); err != nil {
			t.Fatalf("method %s: %v", m, err)
		}
	}
	if err := run(context.Background(), gp, 3, "nope", false, 30, 30, 1, "", "", 0, noTel()); err == nil {
		t.Error("accepted unknown method")
	}
	if err := run(context.Background(), "", 3, "tc", false, 30, 30, 1, "", "", 0, noTel()); err == nil {
		t.Error("accepted missing graph")
	}
}

func TestRunCompare(t *testing.T) {
	dir := t.TempDir()
	gp, _ := writeTestGraph(t, dir)
	if err := run(context.Background(), gp, 3, "tc", true, 30, 30, 1, "", "", 0, noTel()); err != nil {
		t.Fatal(err)
	}
}

// TestRunTelemetryCounters runs the TC method under an enabled registry and
// checks that the greedy and sampling layers reported into it.
func TestRunTelemetryCounters(t *testing.T) {
	dir := t.TempDir()
	gp, _ := writeTestGraph(t, dir)
	ctx, rt, err := cliutil.StartTelemetry(context.Background(), "infmax", "", filepath.Join(dir, "stats.json"))
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Flush()
	if err := run(ctx, gp, 3, "tc", false, 30, 30, 1, "", "", 0, rt); err != nil {
		t.Fatal(err)
	}
	rep := rt.Registry.Report()
	if rep.Counters["infmax.gain_evals"] == 0 {
		t.Fatal("greedy reported no gain evaluations")
	}
	if rep.Counters["worlds.sampled"] == 0 {
		t.Fatal("index build reported no sampled worlds")
	}
	if rep.Counters["core.spheres_computed"] == 0 {
		t.Fatal("sphere sweep reported no spheres")
	}
}

// TestRunStatsJSON checks that each greedy reports its own phase span at the
// top level of the -stats-json report, opened by the library call itself.
func TestRunStatsJSON(t *testing.T) {
	dir := t.TempDir()
	gp, _ := writeTestGraph(t, dir)
	// The report's graph hash is the graph's fingerprint, taken from the
	// index the run builds.
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	graphHash := fmt.Sprintf("%016x", checkpoint.NewHasher().Graph(g).Sum())
	for method, span := range map[string]string{"std": "infmax.std.greedy", "tc": "infmax.tc.greedy"} {
		t.Run(method, func(t *testing.T) {
			stats := filepath.Join(dir, method+"-stats.json")
			ctx, rt, err := cliutil.StartTelemetry(context.Background(), "infmax", "", stats)
			if err != nil {
				t.Fatal(err)
			}
			if err := run(ctx, gp, 3, method, false, 30, 30, 1, "", "", 0, rt); err != nil {
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
			if rep.RunInfo.Tool != "infmax" || rep.RunInfo.GraphHash != graphHash {
				t.Fatalf("run info incomplete or graph hash not %s: %+v", graphHash, rep.RunInfo)
			}
			seconds := 0.0
			for _, sp := range rep.Spans {
				if sp.Name == span {
					seconds += sp.Seconds
				}
			}
			if seconds <= 0 {
				t.Fatalf("top-level span %q missing or zero: %+v", span, rep.Spans)
			}
		})
	}
}

// captureStderr runs f with os.Stderr redirected to a file and returns what
// f wrote there.
func captureStderr(t *testing.T, f func()) string {
	t.Helper()
	tmp, err := os.CreateTemp(t.TempDir(), "stderr")
	if err != nil {
		t.Fatal(err)
	}
	defer tmp.Close()
	old := os.Stderr
	os.Stderr = tmp
	defer func() { os.Stderr = old }()
	f()
	b, err := os.ReadFile(tmp.Name())
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestRunWithSphereStore passes -spheres three stores. One computed from
// the index infmax builds (-samples 30 -seed 1) is used. One computed from
// the index of another, equal-sized graph passes the node-count check, so
// only the index fingerprint it carries keeps it from driving TC seed
// selection: infmax must call it unusable and recompute, as it does for a
// missing file.
func TestRunWithSphereStore(t *testing.T) {
	dir := t.TempDir()
	gp, _ := writeTestGraph(t, dir)
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	topo, err := gen.Generate(gen.Config{Model: "er", N: g.NumNodes(), M: 120, Seed: 3})
	if err != nil {
		t.Fatal(err)
	}
	other, err := probs.Fixed(topo, 0.15)
	if err != nil {
		t.Fatal(err)
	}
	store := func(name string, g *graph.Graph) string {
		x, err := index.Build(context.Background(), g, index.Options{Samples: 30, Seed: 1}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		spheres, err := core.ComputeAll(context.Background(), x, core.Options{}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		p := filepath.Join(dir, name)
		if err := core.SaveSpheresFile(p, x.Fingerprint(), spheres); err != nil {
			t.Fatal(err)
		}
		return p
	}
	for _, c := range []struct {
		store  string
		notice bool
	}{
		{store("own.spheres", g), false},
		{store("foreign.spheres", other), true},
		{filepath.Join(dir, "missing.bin"), true},
	} {
		stderr := captureStderr(t, func() {
			if err := run(context.Background(), gp, 3, "tc", false, 30, 30, 1, c.store, "", 0, noTel()); err != nil {
				t.Fatal(err)
			}
		})
		if got := strings.Contains(stderr, "sphere store unusable") && strings.Contains(stderr, "recomputing"); got != c.notice {
			t.Fatalf("%s: recompute notice %v, want %v; stderr:\n%s", c.store, got, c.notice, stderr)
		}
	}
}
