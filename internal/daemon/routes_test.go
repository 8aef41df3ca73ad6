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
	"soi/internal/fault"
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
	"/debug/vars",
	"/debug/traces",
	"/debug/traces/not-a-trace-id",
	"/debug/pprof/",
	"/debug/pprof/cmdline",
	"/debug/pprof/profile?seconds=1",
	"/debug/pprof/symbol",
	"/debug/pprof/trace?seconds=0.05",
	"/debug/failpoints",
}

// TestDebugRoutesEverywhere walks the debug route list against soid's
// handler, soigw's handler (with and without telemetry) and a batch CLI's
// -debug-addr listener: each route must answer something other than 404,
// except the documented 404 "tracing disabled" of a daemon without a tracer.
func TestDebugRoutesEverywhere(t *testing.T) {
	t.Setenv(fault.HTTPEnvVar, "1") // the failpoint route is mounted at build time

	b := graph.NewBuilder(3)
	b.AddEdge(0, 1, 0.5)
	b.AddEdge(1, 2, 0.5)
	g := b.MustBuild()
	x, err := index.Build(context.Background(), g, index.Options{Samples: 4, Seed: 1}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	soid, err := server.New(server.Config{Graph: g, Index: x, Telemetry: telemetry.New(),
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
	defer cli.Flush()

	// A handler's requests carry a canceled context, so the timed pprof
	// routes return at once; the listener's wait out their short window.
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	viaHandler := func(h http.Handler) func(string) (int, string) {
		return func(path string) (int, string) {
			rec := httptest.NewRecorder()
			h.ServeHTTP(rec, httptest.NewRequest("GET", path, nil).WithContext(canceled))
			return rec.Code, rec.Body.String()
		}
	}
	viaListener := func(path string) (int, string) {
		resp, err := http.Get("http://" + cli.DebugAddr + path)
		if err != nil {
			t.Fatalf("GET %s: %v", path, err)
		}
		defer resp.Body.Close()
		body, _ := io.ReadAll(resp.Body)
		return resp.StatusCode, string(body)
	}

	for _, target := range []struct {
		name string
		get  func(string) (int, string)
	}{
		{"soid", viaHandler(soid.Handler())},
		{"soigw", viaHandler(gateway(telemetry.New(), trace.New(trace.Options{Service: "soigw"})))},
		{"soigw without telemetry", viaHandler(gateway(nil, nil))},
		{"cli -debug-addr", viaListener},
	} {
		for _, route := range debugRoutes {
			code, body := target.get(route)
			if code == http.StatusNotFound && !strings.Contains(body, "tracing disabled") {
				t.Errorf("%s: GET %s = 404 %q", target.name, route, body)
			}
		}
	}
}
