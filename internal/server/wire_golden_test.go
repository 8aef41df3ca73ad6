package server

import (
	"context"
	"flag"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"

	"soi/internal/daemon"
	"soi/internal/fault"
	"soi/internal/sketch"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from the current responses")

// wireVolatile matches the only response fields whose values depend on when
// the request ran rather than on what it asked.
var wireVolatile = regexp.MustCompile(`"(uptime_seconds|cache_entries)":\d+`)

// wireCase renders one request's status and exact body for the golden file.
func wireCase(name string, h http.Handler, url string) string {
	rec := httptest.NewRecorder()
	h.ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
	body := wireVolatile.ReplaceAllString(rec.Body.String(), `"$1":0`)
	return fmt.Sprintf("=== %s\nGET %s\n%d\n%s", name, url, rec.Code, body)
}

// checkWireGolden compares the rendered cases against testdata/wire.golden
// byte for byte (or rewrites it under -update-wire).
func checkWireGolden(t *testing.T, cases []string) {
	t.Helper()
	got := strings.Join(cases, "")
	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-wire to create it)", err)
	}
	if got == string(want) {
		return
	}
	gotBlocks := strings.SplitAfter(got, "\n=== ")
	wantBlocks := strings.SplitAfter(string(want), "\n=== ")
	for i := range gotBlocks {
		if i >= len(wantBlocks) || gotBlocks[i] != wantBlocks[i] {
			w := "<missing>"
			if i < len(wantBlocks) {
				w = wantBlocks[i]
			}
			t.Fatalf("wire drift in case %d:\n got: %s\nwant: %s", i, gotBlocks[i], w)
		}
	}
	t.Fatalf("wire drift: golden has %d cases, got %d", len(wantBlocks), len(gotBlocks))
}

// TestWireGolden pins the exact bytes soid puts on the wire for every /v1
// body shape, one error envelope per code family and both /readyz states.
// The bodies are the contract the gateway and every client decode, so a
// change here is a wire change and must be deliberate.
func TestWireGolden(t *testing.T) {
	f := sharedFixture(t)
	sk, err := sketch.Build(context.Background(), f.x, sketch.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	h := newTestServer(t, func(c *Config) { c.Sketch = sk }).Handler()
	bare := newTestServer(t, func(c *Config) { c.Spheres = nil }).Handler()

	var cases []string
	for _, tc := range []struct{ name, url string }{
		{"sphere store", "/v1/sphere/3"},
		{"sphere computed", "/v1/sphere/3?source=compute&samples=25"},
		{"sphere sketch", "/v1/sphere/3?estimator=sketch"},
		{"stability", "/v1/stability?seeds=0,5&samples=20"},
		{"seeds dense", "/v1/seeds?k=3"},
		{"seeds sketch", "/v1/seeds?k=3&estimator=sketch"},
		{"spread index", "/v1/spread?seeds=0,9"},
		{"spread mc", "/v1/spread?seeds=0&method=mc&trials=50"},
		{"spread sketch", "/v1/spread?seeds=0,9&estimator=sketch"},
		// The budget expires before the first trial finishes; the Budget
		// gate admits exactly that one trial and then truncates.
		{"spread budget 206", "/v1/spread?seeds=0&method=mc&trials=200000&budget=1ns"},
		{"reliability", "/v1/reliability?sources=0&threshold=0.5&samples=50"},
		{"modes", "/v1/modes/3?k=2"},
		{"info", "/v1/info"},
		{"readyz ready", "/readyz"},
		{"error bad_request", "/v1/spread?seeds=1&method=bogus"},
		{"error not_found", "/v1/sphere/99999"},
	} {
		cases = append(cases, wireCase(tc.name, h, tc.url))
	}
	cases = append(cases, wireCase("error conflict", bare, "/v1/seeds?k=3"))

	q, _ := quarantineFixture(t, []int{2})
	cases = append(cases, wireCase("spread quarantine 206", q.Handler(), "/v1/spread?seeds=0,9&method=index"))
	all := make([]int, 60)
	for i := range all {
		all[i] = i
	}
	dead, _ := quarantineFixture(t, all)
	cases = append(cases, wireCase("error degraded", dead.Handler(), "/v1/spread?seeds=0,9&method=index"))

	fault.SetActive(true)
	if err := fault.Enable(fault.ServerCompute, fault.Failpoint{Kind: fault.KindError, Times: 1}); err != nil {
		t.Fatal(err)
	}
	cases = append(cases, wireCase("error internal", bare, "/v1/spread?seeds=2"))
	fault.SetActive(false)

	gate := daemon.NewGate()
	cases = append(cases,
		wireCase("readyz loading", gate, "/readyz"),
		wireCase("error loading", gate, "/v1/sphere/1"))

	drained := newTestServer(t, nil)
	drained.Drain()
	cases = append(cases,
		wireCase("readyz draining", drained.Handler(), "/readyz"),
		wireCase("error draining", drained.Handler(), "/v1/sphere/3"))

	checkWireGolden(t, cases)
}
