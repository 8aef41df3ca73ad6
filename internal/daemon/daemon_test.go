package daemon

import (
	"context"
	"io"
	"net/http"
	"strings"
	"testing"
	"time"

	"soi/internal/telemetry"
)

// TestDebugListener boots the debug surface on the one listener at an
// ephemeral port and checks that /metrics and /debug/pprof respond — the surface a user reaches with curl during a -debug-addr run.
func TestDebugListener(t *testing.T) {
	r := telemetry.New()
	r.Counter("worlds.sampled").Add(5)
	mux := http.NewServeMux()
	Debug(mux, r, nil)
	g := NewGate()
	g.Ready(mux)
	addr, err := g.Start("127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		if err := g.Shutdown(ctx); err != nil {
			t.Error(err)
		}
	}()

	get := func(path string) (int, string, string) {
		resp, err := http.Get("http://" + addr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body), resp.Header.Get("Content-Type")
	}

	code, body, ctype := get("/metrics")
	if code != http.StatusOK || !strings.Contains(body, "soi_worlds_sampled_total 5") {
		t.Errorf("/metrics: code=%d body=%q", code, body)
	}
	if !strings.HasPrefix(ctype, "text/plain; version=0.0.4") {
		t.Errorf("/metrics content-type = %q", ctype)
	}

	code, body, _ = get("/debug/pprof/cmdline")
	if code != http.StatusOK || body == "" {
		t.Errorf("/debug/pprof/cmdline: code=%d", code)
	}

	// /debug/pprof/profile with a tiny window proves CPU profiling is
	// servable end to end.
	code, body, _ = get("/debug/pprof/profile?seconds=1")
	if code != http.StatusOK || len(body) == 0 {
		t.Errorf("/debug/pprof/profile: code=%d len=%d", code, len(body))
	}

	code, body, _ = get("/debug/traces")
	if code != http.StatusNotFound || !strings.Contains(body, "tracing disabled") {
		t.Errorf("/debug/traces without a tracer: code=%d body=%q, want 404 tracing disabled", code, body)
	}
}
