package main

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
)

func writeTestGraph(t *testing.T) string {
	t.Helper()
	path := filepath.Join(t.TempDir(), "g.tsv")
	var b strings.Builder
	for i := 0; i < 9; i++ {
		fmt.Fprintf(&b, "%d\t%d\t0.8\n", i, i+1)
	}
	b.WriteString("9\t0\t0.5\n")
	if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// parse builds soid's settings from command-line args, as main does.
func parse(t *testing.T, args ...string) (*options, *daemon.Lifecycle) {
	t.Helper()
	fs := flag.NewFlagSet("soid", flag.ContinueOnError)
	o, life := flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, life
}

func TestRunRequiresGraph(t *testing.T) {
	err := run(parse(t, "-addr", ":0"))
	if err == nil || !strings.Contains(err.Error(), "-graph") {
		t.Fatalf("err %v, want -graph requirement", err)
	}
}

func TestRunMmapRequiresIndex(t *testing.T) {
	g := writeTestGraph(t)
	err := run(parse(t, "-graph", g, "-mmap", "-addr", ":0"))
	if err == nil || !strings.Contains(err.Error(), "-index") {
		t.Fatalf("err %v, want -mmap/-index requirement", err)
	}
}

func TestRunRejectsBadFingerprint(t *testing.T) {
	g := writeTestGraph(t)
	err := run(parse(t, "-graph", g, "-addr", ":0", "-expect-fp", "zzz"))
	if err == nil || !strings.Contains(err.Error(), "expect-fp") {
		t.Fatalf("err %v, want bad -expect-fp", err)
	}
	err = run(parse(t, "-graph", g, "-addr", ":0", "-expect-fp", "deadbeef"))
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("err %v, want fingerprint mismatch", err)
	}
}

func TestRunRejectsMissingArtifacts(t *testing.T) {
	g := writeTestGraph(t)
	err := run(parse(t, "-graph", g, "-index", filepath.Join(t.TempDir(), "nope.idx"), "-addr", ":0"))
	if err == nil || !strings.Contains(err.Error(), "loading index") {
		t.Fatalf("err %v, want index load failure", err)
	}
	err = run(parse(t, "-graph", g, "-spheres", filepath.Join(t.TempDir(), "nope.tsv"), "-addr", ":0"))
	if err == nil || !strings.Contains(err.Error(), "sphere store") {
		t.Fatalf("err %v, want sphere store load failure", err)
	}
}

// TestRunRefusesForeignStore swaps the sphere stores of two equal-sized
// shards: shard 0's store next to shard 1's graph and index passes the
// node-count check, so only the index fingerprint the store carries can
// keep soid from serving spheres of other worlds.
func TestRunRefusesForeignStore(t *testing.T) {
	dir := t.TempDir()
	var idx, store [2]string
	for s := range idx {
		b := graph.NewBuilder(10)
		for i := 0; i < 10; i++ {
			b.AddEdge(graph.NodeID(i), graph.NodeID((i+1+s)%10), 0.6)
		}
		g := b.MustBuild()
		x, err := index.Build(context.Background(), g, index.Options{Samples: 20, Seed: uint64(s)}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		spheres, err := core.ComputeAll(context.Background(), x, core.Options{}, checkpoint.Config{})
		if err != nil {
			t.Fatal(err)
		}
		idx[s], store[s] = filepath.Join(dir, fmt.Sprintf("shard%d.idx", s)), filepath.Join(dir, fmt.Sprintf("shard%d.spheres", s))
		if err := x.SaveFile(idx[s]); err != nil {
			t.Fatal(err)
		}
		if err := core.SaveSpheresFile(store[s], x.Fingerprint(), spheres); err != nil {
			t.Fatal(err)
		}
		if s == 1 {
			gp := filepath.Join(dir, "shard1.tsv")
			if err := graph.SaveFile(gp, g, nil); err != nil {
				t.Fatal(err)
			}
			err := run(parse(t, "-graph", gp, "-index", idx[1], "-spheres", store[0], "-addr", ":0"))
			if err == nil || !strings.Contains(err.Error(), "sphere store") || !strings.Contains(err.Error(), core.StoreKind.Rebuild) {
				t.Fatalf("err %v, want a refused sphere store naming %q", err, core.StoreKind.Rebuild)
			}
		}
	}
}

// TestRunServesAndDrains exercises the daemon end to end in-process: start
// on an ephemeral port, wait for the address file, query it, then SIGTERM
// ourselves and check that run returns cleanly.
func TestRunServesAndDrains(t *testing.T) {
	g := writeTestGraph(t)
	addrFile := filepath.Join(t.TempDir(), "addr")
	done := make(chan error, 1)
	go func() {
		done <- run(parse(t, "-graph", g, "-samples", "30", "-addr", "127.0.0.1:0", "-addr-file", addrFile,
			"-cost-samples", "10", "-trials", "10", "-drain-timeout", "5s"))
	}()

	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for the address file")
		}
		if b, err := os.ReadFile(addrFile); err == nil {
			addr = strings.TrimSpace(string(b))
		} else {
			time.Sleep(20 * time.Millisecond)
		}
	}
	// soid binds and writes the address file before it loads, so until
	// /readyz answers 200 a query meets 503 "loading".
	for {
		if time.Now().After(deadline) {
			t.Fatal("timed out waiting for /readyz")
		}
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				break
			}
		}
		time.Sleep(20 * time.Millisecond)
	}

	resp, err := http.Get("http://" + addr + "/v1/sphere/0")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("status %d, want 200", resp.StatusCode)
	}

	if err := syscall.Kill(os.Getpid(), syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	select {
	case err := <-done:
		if err != nil {
			t.Fatalf("run: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("run did not return after SIGTERM")
	}
}

var update = flag.Bool("update", false, "rewrite testdata/flags.txt from the current flag set")

// TestFlagSurface pins soid's flag names and defaults in testdata/flags.txt:
// a dropped knob shows in that file's diff, and a new one needs an edit
// there. Regenerate with
//
//	go test ./cmd/soid -run TestFlagSurface -update
func TestFlagSurface(t *testing.T) {
	t.Setenv("SOI_INDEX_MMAP", "") // -mmap's default comes from the environment
	fs := flag.NewFlagSet("soid", flag.ContinueOnError)
	flags(fs)
	var b strings.Builder
	fs.VisitAll(func(f *flag.Flag) { fmt.Fprintf(&b, "-%s=%s\n", f.Name, f.DefValue) })
	path := filepath.Join("testdata", "flags.txt")
	if *update {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(b.String()), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("reading %s (regenerate with -update): %v", path, err)
	}
	if b.String() != string(want) {
		t.Fatalf("flag surface changed; if intended, regenerate with -update\n--- %s\n%s--- current\n%s", path, want, b.String())
	}
}
