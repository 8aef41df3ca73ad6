package daemon_test

import (
	"context"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"soi/internal/checkpoint"
	"soi/internal/cliutil"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/router"
	"soi/internal/server"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// debugRoutes is the debug surface every soi listener serves. The trace id
// is malformed on purpose: a mounted trace handler answers it 400, an
// unmounted route 404.
var debugRoutes = []string{
	"/metrics",
	"/debug/traces",
	"/debug/traces/not-a-trace-id",
	"/debug/pprof/",
	"/debug/pprof/cmdline",
	"/debug/pprof/profile?seconds=1",
	"/debug/pprof/symbol",
	"/debug/pprof/trace?seconds=0.05",
}

// debugTarget is one soi listener: soid's handler, soigw's handler (with
// and without telemetry) or a batch CLI's -debug-addr listener.
type debugTarget struct {
	name  string
	serve func(method, path string) (int, string)
}

// debugTargets builds the four listeners every debug route must agree on.
func debugTargets(t *testing.T) []debugTarget {
	t.Helper()
	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	x, err := index.Build(context.Background(), g, index.Options{Samples: 4, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	soid, err := server.New(server.Config{Index: x, Telemetry: telemetry.New(),
		Tracer: trace.New(trace.Options{Service: "soid"})})
	if err != nil {
		t.Fatal(err)
	}
	gateway := func(tel *telemetry.Registry, tr *trace.Tracer) http.Handler {
		rt, err := router.New(router.Config{
			Topology: &router.Topology{Format: router.TopologyFormat, NumNodes: 1,
				Shards: []router.ShardManifest{{ID: 0, NumNodes: 1, Nodes: []int64{0}}}},
			Replicas:      [][]string{{"http://127.0.0.1:1"}},
			ProbeInterval: -1,
			Telemetry:     tel,
			Tracer:        tr,
		})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(rt.Close)
		return rt.Handler()
	}
	_, cli, err := cliutil.StartTelemetry(context.Background(), "tool", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(cli.Flush)

	// A handler's requests carry a canceled context, so the timed pprof
	// routes return at once; the listener's wait out their short window.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	viaHandler := func(h http.Handler) func(string, string) (int, string) {
		return func(method, path string) (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest(method, path, nil).WithContext(canceled))
			return rec.Code, rec.Body.String()
		}
	}
	viaListener := func(method, path string) (int, string) {
		req, err := http.NewRequest(method, "http://"+cli.DebugAddr+path, nil)
		if err != nil {
			t.Fatal(err)
		}
		resp, err := http.DefaultClient.Do(req)
		if err != nil {
			t.Fatalf("%s %s: %v", method, path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}
	return []debugTarget{
		{"soid", viaHandler(soid.Handler())},
		{"soigw", viaHandler(gateway(telemetry.New(), trace.New(trace.Options{Service: "soigw"})))},
		{"soigw without telemetry", viaHandler(gateway(nil, nil))},
		{"cli -debug-addr", viaListener},
	}
}

// TestDebugRoutesEverywhere walks the debug route list against every
// listener: each route must answer something other than 404, except the
// documented 404 "tracing disabled" of a daemon without a tracer.
func TestDebugRoutesEverywhere(t *testing.T) {
	for _, target := range debugTargets(t) {
		for _, route := range debugRoutes {
			code, body := target.serve("GET", route)
			if code == http.StatusNotFound && !strings.Contains(body, "tracing disabled") {
				t.Errorf("%s: GET %s = 404 %q", target.name, route, body)
			}
		}
	}
}

// TestNoSideDoorRoutes: the debug surface is /metrics, /debug/traces and
// pprof, nothing more. The expvar mirror and the remote failpoint control
// answer 404 on every listener, even with the environment variable that
// once mounted the latter; failpoints arm only in process or from
// SOI_FAILPOINTS at start.
func TestNoSideDoorRoutes(t *testing.T) {
	t.Setenv("SOI_FAILPOINTS_HTTP", "1")
	for _, target := range debugTargets(t) {
		for _, route := range []string{"/debug/vars", "/debug/failpoints"} {
			for _, method := range []string{"GET", "POST"} {
				if code, _ := target.serve(method, route+"?spec=server/compute=error"); code != http.StatusNotFound {
					t.Errorf("%s: %s %s = %d, want 404", target.name, method, route, code)
				}
			}
		}
	}
}
