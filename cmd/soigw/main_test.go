package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"syscall"
	"testing"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/router"
	"soi/internal/server"
	"soi/internal/telemetry"
)

// parse builds soigw's settings from command-line args, as main does.
func parse(t *testing.T, args ...string) (*options, *daemon.Lifecycle) {
	t.Helper()
	fs := flag.NewFlagSet("soigw", flag.ContinueOnError)
	o, life := flags(fs)
	if err := fs.Parse(args); err != nil {
		t.Fatal(err)
	}
	return o, life
}

func TestParseReplicas(t *testing.T) {
	for _, tc := range []struct {
		spec    string
		want    [][]string
		wantErr string
	}{
		{spec: "", wantErr: "-replicas is required"},
		{spec: "a:1", want: [][]string{{"http://a:1"}}},
		{spec: "a:1,b:2;c:3", want: [][]string{{"http://a:1", "http://b:2"}, {"http://c:3"}}},
		{spec: " https://x:1/ , y:2 ", want: [][]string{{"https://x:1", "http://y:2"}}},
		{spec: "a:1;;c:3", wantErr: "replica group 1 is empty"},
		{spec: "a:1;", wantErr: "replica group 1 is empty"},
		{spec: " , ", wantErr: "replica group 0 is empty"},
	} {
		got, err := parseReplicas(tc.spec)
		if tc.wantErr != "" {
			if err == nil || !strings.Contains(err.Error(), tc.wantErr) {
				t.Errorf("parseReplicas(%q) error %v, want %q", tc.spec, err, tc.wantErr)
			}
			continue
		}
		if err != nil || !reflect.DeepEqual(got, tc.want) {
			t.Errorf("parseReplicas(%q) = %q, %v; want %q", tc.spec, got, err, tc.want)
		}
	}
}

// startShard serves a soid handler over a three-node path whose original
// ids are ids, and returns its manifest entry and URL.
func startShard(t *testing.T, id int, ids []int64) (router.ShardManifest, string) {
	t.Helper()
	b := graph.NewBuilder(len(ids))
	for i := 0; i+1 < len(ids); i++ {
		b.AddEdge(graph.NodeID(i), graph.NodeID(i+1), 0.6)
	}
	g := b.MustBuild()
	x, err := index.Build(context.Background(), g, index.Options{Samples: 16, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := server.New(server.Config{OrigIDs: ids, Index: x})
	if err != nil {
		t.Fatal(err)
	}
	ts := httptest.NewServer(srv.Handler())
	t.Cleanup(ts.Close)
	return router.ShardManifest{ID: id, NumNodes: len(ids), Nodes: ids,
		GraphFingerprint: fmt.Sprintf("%016x", x.GraphFingerprint())}, ts.URL
}

// TestRunServesAndDrains exercises the gateway end to end in-process over two
// in-process shards: start on an ephemeral port, wait for the address file
// and /readyz, scatter a query, then SIGTERM ourselves and check that run
// drains cleanly and leaves its run report behind.
func TestRunServesAndDrains(t *testing.T) {
	dir := t.TempDir()
	s0, url0 := startShard(t, 0, []int64{0, 1, 2})
	s1, url1 := startShard(t, 1, []int64{10, 11, 12})
	topoPath := filepath.Join(dir, "topology.json")
	if err := router.SaveTopology(topoPath, &router.Topology{Format: router.TopologyFormat,
		NumNodes: 6, Shards: []router.ShardManifest{s0, s1}}); err != nil {
		t.Fatal(err)
	}
	addrFile := filepath.Join(dir, "addr")
	statsPath := filepath.Join(dir, "stats.json")
	done := make(chan error, 1)
	go func() {
		done <- run(parse(t, "-topology", topoPath, "-replicas", url0+";"+url1,
			"-addr", "127.0.0.1:0", "-addr-file", addrFile, "-retries", "1", "-retry-base", "1ms",
			"-hedge-delay", "-1ns", "-probe-interval", "50ms", "-drain-timeout", "5s", "-stats-json", statsPath))
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

	resp, err := http.Get("http://" + addr + "/v1/spread?seeds=0,10")
	if err != nil {
		t.Fatalf("query: %v", err)
	}
	var body struct {
		ShardsOK    int `json:"shards_ok"`
		ShardsTotal int `json:"shards_total"`
	}
	err = json.NewDecoder(resp.Body).Decode(&body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || err != nil || body.ShardsOK != 2 || body.ShardsTotal != 2 {
		t.Fatalf("spread: status %d, body %+v (err %v); want 200 from both shards", resp.StatusCode, body, err)
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
	b, err := os.ReadFile(statsPath)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("stats file is not a report: %v", err)
	}
	if rep.RunInfo.Tool != "soigw" || rep.Counters["router.requests"] != 1 {
		t.Fatalf("report tool %q, router.requests %d; want soigw and 1", rep.RunInfo.Tool, rep.Counters["router.requests"])
	}
}

var update = flag.Bool("update", false, "rewrite testdata/flags.txt from the current flag set")

// TestFlagSurface pins soigw's flag names and defaults in testdata/flags.txt:
// a dropped knob shows in that file's diff, and a new one needs an edit
// there. Regenerate with
//
//	go test ./cmd/soigw -run TestFlagSurface -update
func TestFlagSurface(t *testing.T) {
	fs := flag.NewFlagSet("soigw", flag.ContinueOnError)
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
