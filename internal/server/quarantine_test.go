package server

import (
	"bytes"
	"context"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"

	"soi/internal/api"
	"soi/internal/blockfile"
	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/telemetry"
)

// writeCorrupted writes the serialized v03 index to a temp file with one byte
// flipped in the middle of each listed world's block: the directory stays
// intact, so index.LoadServing succeeds and quarantines each listed world.
func writeCorrupted(t *testing.T, data []byte, worlds []int) string {
	t.Helper()
	d := append([]byte(nil), data...)
	n := int(binary.LittleEndian.Uint32(d[12:16]))
	dir, err := blockfile.ParseDirectory(d[index.FileKind.HeaderLen():index.FileKind.BlocksStart(n)-4], n)
	if err != nil {
		t.Fatal(err)
	}
	for _, w := range worlds {
		e := dir[w]
		d[e.Off+int64(e.Len)/2] ^= 0xFF
	}
	p := filepath.Join(t.TempDir(), "corrupt.idx")
	if err := os.WriteFile(p, d, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

// quarantineFixture builds a clean index, serializes it, corrupts the listed
// worlds on disk, and returns a server over soid's serving load of the file
// plus the clean in-memory index as the exact oracle.
func quarantineFixture(t *testing.T, corrupt []int) (*Server, *index.Index) {
	t.Helper()
	g := testGraph(t)
	clean, err := index.Build(context.Background(), g, index.Options{Samples: 60, Seed: 7}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	var buf bytes.Buffer
	if _, err := clean.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	tel := telemetry.New()
	mx, err := index.LoadServing(telemetry.NewContext(context.Background(), tel), writeCorrupted(t, buf.Bytes(), corrupt), g, nil)
	if err != nil {
		t.Fatal(err)
	}
	if got := tel.Counter("index.worlds_quarantined").Value(); got != int64(len(corrupt)) {
		t.Fatalf("index.worlds_quarantined = %d, want %d", got, len(corrupt))
	}
	s, err := New(Config{
		Index: mx, Telemetry: telemetry.New(),
		MaxInflight: 4, MaxQueue: 16, CostSamples: 20, Seed: 11,
	})
	if err != nil {
		t.Fatal(err)
	}
	return s, clean
}

// TestQuarantineDegradesTo206 is the end-to-end corruption story: a soid
// serving an index file with one corrupt world block answers 206 with
// worlds_quarantined reported and an error_bound wide enough to bracket the
// exact answer computed over the uncorrupted index.
func TestQuarantineDegradesTo206(t *testing.T) {
	s, clean := quarantineFixture(t, []int{2})

	rec, body := do(t, s, "/v1/spread?seeds=0,9&method=index")
	if rec.Code != 206 {
		t.Fatalf("status %d, want 206: %s", rec.Code, rec.Body.String())
	}
	if body["partial"] != true {
		t.Fatalf("partial %v, want true", body["partial"])
	}
	if q, _ := body["worlds_quarantined"].(float64); q < 1 {
		t.Fatalf("worlds_quarantined %v, want >= 1", body["worlds_quarantined"])
	}
	wantLive := float64(clean.NumWorlds() - 1)
	if u, _ := body["worlds_used"].(float64); u != wantLive {
		t.Fatalf("worlds_used %v, want %v", body["worlds_used"], wantLive)
	}
	eb, _ := body["error_bound"].(float64)
	if eb <= 0 {
		t.Fatalf("error_bound %v, want > 0", body["error_bound"])
	}

	// The degraded estimate, widened by error_bound, must bracket the exact
	// spread over the full uncorrupted world sample.
	sc := clean.NewScratch()
	oracle := cascade.SpreadFromIndex(clean, []graph.NodeID{0, 9}, sc)
	got, _ := body["spread"].(float64)
	if math.Abs(got-oracle) > eb {
		t.Fatalf("degraded spread %v is more than error_bound %v from exact %v", got, eb, oracle)
	}

	// Degraded answers are never cached: the identical query misses again.
	rec2, _ := do(t, s, "/v1/spread?seeds=0,9&method=index")
	if rec2.Code != 206 || rec2.Header().Get("X-Cache") != "miss" {
		t.Fatalf("repeat query: status %d cache %q, want 206 miss", rec2.Code, rec2.Header().Get("X-Cache"))
	}

	// The other index-backed endpoints degrade the same way.
	if rec, body := do(t, s, "/v1/sphere/3?source=compute&samples=0"); rec.Code != 206 || body["partial"] != true {
		t.Fatalf("sphere: status %d partial %v, want 206 true", rec.Code, body["partial"])
	}
	if rec, _ := do(t, s, "/v1/modes/3?k=2"); rec.Code != 206 {
		t.Fatalf("modes: status %d, want 206", rec.Code)
	}
	if rec, _ := do(t, s, "/v1/stability?seeds=3&samples=5"); rec.Code != 206 {
		t.Fatalf("stability: status %d, want 206", rec.Code)
	}

	// /v1/info surfaces the quarantine count.
	if _, info := do(t, s, "/v1/info"); info["worlds_quarantined"].(float64) < 1 {
		t.Fatalf("info: worlds_quarantined %v, want >=1", info["worlds_quarantined"])
	}
}

// TestQuarantineAllWorlds503 drives the index to total loss: with every block
// corrupt there is no sample left to answer from, so index-backed queries
// fail with a retryable 503 "degraded" (the gateway's cue to fail over).
func TestQuarantineAllWorlds503(t *testing.T) {
	s, clean := quarantineFixture(t, func() []int {
		all := make([]int, 60)
		for i := range all {
			all[i] = i
		}
		return all
	}())
	_ = clean

	rec, body := do(t, s, "/v1/spread?seeds=0&method=index")
	if rec.Code != 503 {
		t.Fatalf("status %d, want 503: %s", rec.Code, rec.Body.String())
	}
	errObj, _ := body["error"].(map[string]any)
	if errObj["code"] != api.CodeDegraded {
		t.Fatalf("code %v, want %q", errObj["code"], api.CodeDegraded)
	}
	if !api.RetryableCode(api.CodeDegraded) {
		t.Fatal("degraded must be retryable so the gateway fails over")
	}
	// Every retryable 503 must carry a backoff hint in both forms, so the
	// gateway's Retry-After honoring applies before it fails over.
	if rec.Header().Get("Retry-After") == "" {
		t.Fatal("degraded 503 missing Retry-After header")
	}
	if ms, _ := errObj["retry_after_ms"].(float64); ms <= 0 {
		t.Fatalf("degraded 503 retry_after_ms = %v, want > 0", errObj["retry_after_ms"])
	}
}
