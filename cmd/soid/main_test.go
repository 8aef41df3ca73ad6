package main

import (
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	"soi/internal/cliutil"
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

func TestRunRequiresGraph(t *testing.T) {
	err := run("", "", "", "", 10, false, false, ":0", "", "", 0, 0, 0,
		time.Second, time.Second, 10, 10, 1, time.Second, "", cliutil.TraceFlags{})
	if err == nil || !strings.Contains(err.Error(), "-graph") {
		t.Fatalf("err %v, want -graph requirement", err)
	}
}

func TestRunMmapRequiresIndex(t *testing.T) {
	g := writeTestGraph(t)
	err := run(g, "", "", "", 10, false, true, ":0", "", "", 0, 0, 0,
		time.Second, time.Second, 10, 10, 1, time.Second, "", cliutil.TraceFlags{})
	if err == nil || !strings.Contains(err.Error(), "-index") {
		t.Fatalf("err %v, want -mmap/-index requirement", err)
	}
}

func TestRunRejectsBadFingerprint(t *testing.T) {
	g := writeTestGraph(t)
	err := run(g, "", "", "", 10, false, false, ":0", "", "zzz", 0, 0, 0,
		time.Second, time.Second, 10, 10, 1, time.Second, "", cliutil.TraceFlags{})
	if err == nil || !strings.Contains(err.Error(), "expect-fp") {
		t.Fatalf("err %v, want bad -expect-fp", err)
	}
	err = run(g, "", "", "", 10, false, false, ":0", "", "deadbeef", 0, 0, 0,
		time.Second, time.Second, 10, 10, 1, time.Second, "", cliutil.TraceFlags{})
	if err == nil || !strings.Contains(err.Error(), "fingerprint mismatch") {
		t.Fatalf("err %v, want fingerprint mismatch", err)
	}
}

func TestRunRejectsMissingArtifacts(t *testing.T) {
	g := writeTestGraph(t)
	err := run(g, filepath.Join(t.TempDir(), "nope.idx"), "", "", 10, false, false, ":0", "", "", 0, 0, 0,
		time.Second, time.Second, 10, 10, 1, time.Second, "", cliutil.TraceFlags{})
	if err == nil || !strings.Contains(err.Error(), "loading index") {
		t.Fatalf("err %v, want index load failure", err)
	}
	err = run(g, "", filepath.Join(t.TempDir(), "nope.tsv"), "", 10, false, false, ":0", "", "", 0, 0, 0,
		time.Second, time.Second, 10, 10, 1, time.Second, "", cliutil.TraceFlags{})
	if err == nil || !strings.Contains(err.Error(), "sphere store") {
		t.Fatalf("err %v, want sphere store load failure", err)
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
		done <- run(g, "", "", "", 30, false, false, "127.0.0.1:0", addrFile, "", 0, 0, 0,
			time.Second, time.Second, 10, 10, 1, 5*time.Second, "", cliutil.TraceFlags{})
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
