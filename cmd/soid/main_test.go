package main

import (
	"bytes"
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"log"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"

	"soi/internal/blockfile"
	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/sketch"
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

// writeTestIndex builds a small index over the graph at gp and saves it
// next to the graph.
func writeTestIndex(t *testing.T, gp string) string {
	t.Helper()
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.Build(context.Background(), g, index.Options{Samples: 30, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(filepath.Dir(gp), "g.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	return p
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

// TestRunRequiresIndex: soid serves only a saved index, and without one it
// names the command that builds it.
func TestRunRequiresIndex(t *testing.T) {
	g := writeTestGraph(t)
	err := run(parse(t, "-graph", g, "-addr", ":0"))
	if err == nil || !strings.Contains(err.Error(), "-index is required") ||
		!strings.Contains(err.Error(), "sphere -graph "+g+" -build-index ") {
		t.Fatalf("err %v, want -index requirement naming the rebuild command", err)
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
	err = run(parse(t, "-graph", g, "-index", writeTestIndex(t, g), "-spheres", filepath.Join(t.TempDir(), "nope.tsv"), "-addr", ":0"))
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
		// Index the graph as soid will load it: the file's dense order.
		gp := filepath.Join(dir, fmt.Sprintf("shard%d.tsv", s))
		if err := graph.SaveFile(gp, b.MustBuild(), nil); err != nil {
			t.Fatal(err)
		}
		g, _, err := graph.LoadFile(gp)
		if err != nil {
			t.Fatal(err)
		}
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
			err := run(parse(t, "-graph", gp, "-index", idx[1], "-spheres", store[0], "-addr", ":0"))
			if err == nil || !strings.Contains(err.Error(), "sphere store") || !strings.Contains(err.Error(), core.StoreKind.Rebuild) {
				t.Fatalf("err %v, want a refused sphere store naming %q", err, core.StoreKind.Rebuild)
			}
		}
	}
}

// TestRunRefusesUnservableSketch: a sketch whose k is below
// bound.MinBottomK would serve bottom-k bounds outside their derivation, so
// soid refuses to load it and names the smallest k it accepts.
func TestRunRefusesUnservableSketch(t *testing.T) {
	gp := writeTestGraph(t)
	ip := writeTestIndex(t, gp)
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	x, err := index.LoadFile(ip, g)
	if err != nil {
		t.Fatal(err)
	}
	sk, err := sketch.Build(context.Background(), x, sketch.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	sp := filepath.Join(t.TempDir(), "g.skc")
	if err := sk.SaveFile(sp); err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- run(parse(t, "-graph", gp, "-index", ip, "-sketch", sp, "-addr", "127.0.0.1:0")) }()
	select {
	case err := <-done:
		want := fmt.Sprintf("k >= %d", bound.MinBottomK(bound.ServingDelta))
		if err == nil || !strings.Contains(err.Error(), want) {
			t.Fatalf("err %v, want a refused sketch naming %q", err, want)
		}
	case <-time.After(10 * time.Second):
		stopRun(t, done)
		t.Fatal("soid served a k=8 sketch")
	}
}

// startRun starts run with args plus an ephemeral address in the
// background and waits until /readyz answers 200. stopRun ends it.
func startRun(t *testing.T, args ...string) (addr string, done chan error) {
	t.Helper()
	addrFile := filepath.Join(t.TempDir(), "addr")
	done = make(chan error, 1)
	go func() {
		done <- run(parse(t, append(args, "-addr", "127.0.0.1:0", "-addr-file", addrFile, "-drain-timeout", "5s")...))
	}()
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
		select {
		case err := <-done:
			t.Fatalf("run returned before /readyz turned ready: %v", err)
		default:
		}
		resp, err := http.Get("http://" + addr + "/readyz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return addr, done
			}
		}
		time.Sleep(20 * time.Millisecond)
	}
}

// stopRun SIGTERMs the process and checks that run drains cleanly.
func stopRun(t *testing.T, done chan error) {
	t.Helper()
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

// getJSON fetches a path and decodes its JSON body.
func getJSON(t *testing.T, addr, path string) (int, map[string]any) {
	t.Helper()
	resp, err := http.Get("http://" + addr + path)
	if err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	defer resp.Body.Close()
	var body map[string]any
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatalf("GET %s: %v", path, err)
	}
	return resp.StatusCode, body
}

// TestRunServesAndDrains exercises the daemon end to end in-process: start
// on an ephemeral port, wait for the address file, query it, then SIGTERM
// ourselves and check that run returns cleanly.
func TestRunServesAndDrains(t *testing.T) {
	g := writeTestGraph(t)
	addr, done := startRun(t, "-graph", g, "-index", writeTestIndex(t, g), "-cost-samples", "10", "-trials", "10")
	if code, _ := getJSON(t, addr, "/v1/sphere/0"); code != 200 {
		t.Fatalf("status %d, want 200", code)
	}
	stopRun(t, done)
}

// syncBuffer is a bytes.Buffer safe to write from run's goroutine while
// the test reads it.
type syncBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *syncBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *syncBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// TestRunQuarantinesCorruptWorld serves an index file with one byte of one
// world block flipped: soid still turns ready, logs the quarantine, reports
// it in /v1/info, and answers spread over the surviving worlds with a 206
// and a widened error bound.
func TestRunQuarantinesCorruptWorld(t *testing.T) {
	gp := writeTestGraph(t)
	g, _, err := graph.LoadFile(gp)
	if err != nil {
		t.Fatal(err)
	}
	const worlds = 20
	x, err := index.Build(context.Background(), g, index.Options{Samples: worlds, Seed: 5}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	p := filepath.Join(t.TempDir(), "g.idx")
	if err := x.SaveFile(p); err != nil {
		t.Fatal(err)
	}
	rep, err := blockfile.Fsck(p, index.FileKind)
	if err != nil || !rep.Clean() {
		t.Fatalf("fresh index: %+v, err %v", rep, err)
	}
	data, err := os.ReadFile(p)
	if err != nil {
		t.Fatal(err)
	}
	b := rep.Dir[3]
	data[b.Off+int64(b.Len)/2] ^= 0xFF
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}

	var logs syncBuffer
	log.SetOutput(&logs)
	defer log.SetOutput(os.Stderr)
	addr, done := startRun(t, "-graph", gp, "-index", p)
	defer stopRun(t, done)

	if !strings.Contains(logs.String(), "QUARANTINE world 3") {
		t.Fatalf("log lacks the quarantine line:\n%s", logs.String())
	}
	if code, info := getJSON(t, addr, "/v1/info"); code != 200 || info["worlds_quarantined"] != 1.0 || info["worlds"] != float64(worlds) {
		t.Fatalf("info: status %d, worlds_quarantined %v, worlds %v; want 200, 1, %d", code, info["worlds_quarantined"], info["worlds"], worlds)
	}
	code, body := getJSON(t, addr, "/v1/spread?seeds=0")
	if code != http.StatusPartialContent || body["worlds_used"] != float64(worlds-1) {
		t.Fatalf("spread: status %d, worlds_used %v; want 206, %d", code, body["worlds_used"], worlds-1)
	}
	if eb, _ := body["error_bound"].(float64); eb <= 0 {
		t.Fatalf("spread: error_bound %v, want > 0", body["error_bound"])
	}
}

var update = flag.Bool("update", false, "rewrite testdata/flags.txt from the current flag set")

// TestFlagSurface pins soid's flag names and defaults in testdata/flags.txt:
// a dropped knob shows in that file's diff, and a new one needs an edit
// there. Regenerate with
//
//	go test ./cmd/soid -run TestFlagSurface -update
func TestFlagSurface(t *testing.T) {
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
