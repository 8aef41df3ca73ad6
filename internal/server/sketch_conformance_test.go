package server

import (
	"context"
	"fmt"
	"math"
	"testing"

	"soi/internal/bound"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/oracle"
	"soi/internal/sketch"
	"soi/internal/statcheck"
	"soi/internal/telemetry"
)

// sketchConfBound is the tolerance for one served sketch estimate of a
// quantity with exact value `exact`: Cohen bottom-k relative error at the
// fixture's k (delta split across m sibling assertions, scaled additive)
// plus Hoeffding world sampling on a [0, n]-valued mean.
func sketchConfBound(exact float64, m, n int) bound.Bound {
	sk := bound.BottomK(confSketchK, statcheck.DefaultDelta).Union(m).Scale(exact)
	return sk.Plus(bound.Hoeffding(confEll, statcheck.DefaultDelta).Union(m).Scale(float64(n)))
}

// TestConformanceSketchServerSpread: /v1/spread?estimator=sketch end to
// end — HTTP parsing, estimator dispatch, and the reported error bound —
// against the exact oracle. The served bound (delta=0.05) plus world slack
// must bracket the truth, and the response must label itself.
func TestConformanceSketchServerSpread(t *testing.T) {
	s, g, _ := conformanceServer(t)
	n := g.NumNodes()
	seedSets := []string{"4", "0", "4,3", "0,1,2"}
	exactOf := func(spec []graph.NodeID) float64 {
		exact, err := oracle.ExpectedSpread(g, spec)
		if err != nil {
			t.Fatal(err)
		}
		return exact
	}
	sets := [][]graph.NodeID{{4}, {0}, {4, 3}, {0, 1, 2}}
	for i, qs := range seedSets {
		exact := exactOf(sets[i])
		rec, body := do(t, s, "/v1/spread?seeds="+qs+"&estimator=sketch")
		if rec.Code != 200 {
			t.Fatalf("seeds=%s: status %d: %s", qs, rec.Code, rec.Body.String())
		}
		if est := body["estimator"]; est != "sketch" {
			t.Errorf("seeds=%s: estimator %v, want sketch", qs, est)
		}
		got := bodyFloat(t, body, "spread")
		statcheck.Close(t, fmt.Sprintf("served sketch spread %s", qs), got, exact,
			sketchConfBound(exact, len(seedSets), n))

		served := bodyFloat(t, body, "error_bound")
		if served <= 0 {
			t.Errorf("seeds=%s: served error_bound %v, want > 0", qs, served)
		}
		worldSlack := bound.Hoeffding(confEll, statcheck.DefaultDelta).Union(len(seedSets)).Scale(float64(n)).Eps
		if diff := math.Abs(got - exact); diff > served+worldSlack {
			t.Errorf("seeds=%s: |%.4f-%.4f| = %.4f outside served bound %.4f (+world %.4f)",
				qs, got, exact, diff, served, worldSlack)
		}
	}
}

// TestConformanceSketchServerSphere: /v1/sphere/{node}?estimator=sketch
// returns the estimated expected sphere magnitude, which must match the
// oracle's exact singleton spread within the derived tolerance.
func TestConformanceSketchServerSphere(t *testing.T) {
	s, g, _ := conformanceServer(t)
	n := g.NumNodes()
	for v := 0; v < n; v++ {
		exact, err := oracle.ExpectedSpread(g, []graph.NodeID{graph.NodeID(v)})
		if err != nil {
			t.Fatal(err)
		}
		rec, body := do(t, s, fmt.Sprintf("/v1/sphere/%d?estimator=sketch", v))
		if rec.Code != 200 {
			t.Fatalf("node %d: status %d: %s", v, rec.Code, rec.Body.String())
		}
		if src := body["source"]; src != "sketch" {
			t.Errorf("node %d: source %v, want sketch", v, src)
		}
		statcheck.Close(t, fmt.Sprintf("served sketch sphere size %d", v),
			bodyFloat(t, body, "estimated_size"), exact, sketchConfBound(exact, n, n))
	}
}

// TestConformanceSketchServerSeeds: the full SKIM path over HTTP — the
// /v1/seeds?estimator=sketch selection's *true* spread (per the exact
// oracle) honors the (1-1/e)·opt floor minus the derived uniform slack
// from world sampling and sketch compression.
func TestConformanceSketchServerSeeds(t *testing.T) {
	s, g, _ := conformanceServer(t)
	n := g.NumNodes()
	o, err := oracle.NewSpreadOracle(g)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range []int{1, 2} {
		_, opt, err := o.OptimalSeedSet(k)
		if err != nil {
			t.Fatal(err)
		}
		rec, body := do(t, s, fmt.Sprintf("/v1/seeds?k=%d&estimator=sketch", k))
		if rec.Code != 200 {
			t.Fatalf("k=%d: status %d: %s", k, rec.Code, rec.Body.String())
		}
		if est := body["estimator"]; est != "sketch" {
			t.Errorf("k=%d: estimator %v, want sketch", k, est)
		}
		if eb := bodyFloat(t, body, "error_bound"); eb <= 0 {
			t.Errorf("k=%d: error_bound %v, want > 0", k, eb)
		}
		seeds := bodyNodes(t, body, "seeds")
		if len(seeds) != k {
			t.Fatalf("k=%d: got %d seeds", k, len(seeds))
		}
		trueSpread, err := o.Spread(seeds)
		if err != nil {
			t.Fatal(err)
		}
		world := bound.Hoeffding(confEll, statcheck.DefaultDelta).Union(1 << n).Scale(2 * float64(n))
		compress := bound.BottomK(confSketchK, statcheck.DefaultDelta).Union(1 << n).
			Scale(opt).Scale(2 * float64(k))
		statcheck.AtLeast(t, fmt.Sprintf("served sketch seed quality k=%d", k),
			trueSpread, (1-1/math.E)*opt, world.Plus(compress))
	}
}

// TestSketchServerRequiresSketch: estimator=sketch without a loaded sketch
// must answer 409 conflict (permanent, not retryable) on all three
// endpoints, and unknown estimator values must 400.
func TestSketchServerRequiresSketch(t *testing.T) {
	s := newTestServer(t, nil)
	for _, path := range []string{
		"/v1/spread?seeds=0&estimator=sketch",
		"/v1/sphere/0?estimator=sketch",
		"/v1/seeds?k=1&estimator=sketch",
	} {
		rec, _ := do(t, s, path)
		if rec.Code != 409 {
			t.Errorf("%s: status %d, want 409", path, rec.Code)
		}
	}
	rec, _ := do(t, s, "/v1/spread?seeds=0&estimator=exact")
	if rec.Code != 400 {
		t.Errorf("unknown estimator: status %d, want 400", rec.Code)
	}
}

// TestNewRejectsForeignSketch: a sketch keyed to a different index must be
// refused at startup — serving it would silently estimate the wrong
// dataset's spreads.
func TestNewRejectsForeignSketch(t *testing.T) {
	f := sharedFixture(t)
	other, err := index.Build(context.Background(), f.g, index.Options{Samples: 60, Seed: 99}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	foreign, err := sketch.Build(context.Background(), other, sketch.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	_, err = New(Config{
		Index:     f.x,
		Sketch:    foreign,
		Telemetry: telemetry.New(),
	})
	if err == nil {
		t.Fatal("foreign sketch accepted")
	}

	matching, err := sketch.Build(context.Background(), f.x, sketch.Options{K: 8, Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	s := newTestServer(t, func(c *Config) { c.Sketch = matching })
	rec, body := do(t, s, "/readyz")
	if rec.Code != 200 {
		t.Fatalf("readyz status %d", rec.Code)
	}
	if body["sketch_loaded"] != true {
		t.Errorf("readyz sketch_loaded = %v, want true", body["sketch_loaded"])
	}
	rec, body = do(t, s, "/v1/info")
	if rec.Code != 200 || body["sketch_loaded"] != true {
		t.Errorf("info status %d sketch_loaded %v", rec.Code, body["sketch_loaded"])
	}
}
