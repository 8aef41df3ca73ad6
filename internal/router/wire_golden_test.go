package router

import (
	"flag"
	"fmt"
	"net/http/httptest"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

var updateWire = flag.Bool("update-wire", false, "rewrite testdata/wire.golden from the current responses")

// wireVolatile matches the only response field whose value depends on when
// the request ran rather than on what it asked.
var wireVolatile = regexp.MustCompile(`"uptime_seconds":\d+`)

// TestWireGolden pins the exact bytes soigw puts on the wire for every merged
// /v1 body, healthy and with one dead shard, and for its /v1/info. A merged
// body must keep soid's field names and order with the scatter-health fields
// after them, so a change here is a wire change and must be deliberate.
func TestWireGolden(t *testing.T) {
	healthy := startGateway(t, nil)
	dead := httptest.NewServer(nil)
	dead.Close()
	oneDead := startGateway(t, func(c *Config) { c.Replicas[1] = []string{dead.URL} })

	urls := []string{
		"/v1/spread?seeds=4,9",
		"/v1/spread?seeds=4,9&method=mc&trials=500",
		"/v1/spread?seeds=4,9&estimator=sketch",
		"/v1/seeds?k=3",
		"/v1/seeds?k=3&estimator=sketch",
		"/v1/reliability?sources=4,9&threshold=0.3&samples=200",
		"/v1/stability?seeds=4,9&samples=200",
	}
	var got strings.Builder
	render := func(name string, rt *Router, url string) {
		rec := httptest.NewRecorder()
		rt.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		body := wireVolatile.ReplaceAllString(rec.Body.String(), `"uptime_seconds":0`)
		fmt.Fprintf(&got, "=== %s\nGET %s\n%d\n%s", name, url, rec.Code, body)
	}
	for _, url := range urls {
		render("healthy", healthy, url)
	}
	for _, url := range urls {
		render("shard 1 dead", oneDead, url)
	}
	render("info", healthy, "/v1/info")

	path := filepath.Join("testdata", "wire.golden")
	if *updateWire {
		if err := os.MkdirAll("testdata", 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, []byte(got.String()), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("%v (run with -update-wire to create it)", err)
	}
	gotBlocks := strings.SplitAfter(got.String(), "\n=== ")
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
	if len(gotBlocks) != len(wantBlocks) {
		t.Fatalf("wire drift: golden has %d cases, got %d", len(wantBlocks), len(gotBlocks))
	}
}
