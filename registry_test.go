package soi

import (
	"context"
	"path/filepath"
	"testing"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/pool"
	"soi/internal/sketch"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// TestRegistryRidesInContext drives every ctx-first entry point twice: with
// a ctx carrying a registry, which must move the entry point's counter, and
// with a bare ctx, which must record nothing — not even into the registry
// attached to the index the call reads — and must not panic.
func TestRegistryRidesInContext(t *testing.T) {
	topo, err := Generate(GenConfig{Model: "ba", N: 60, M: 3, Seed: 31})
	if err != nil {
		t.Fatal(err)
	}
	g, err := WeightedCascade(topo)
	if err != nil {
		t.Fatal(err)
	}
	bg := context.Background()
	x, err := index.Build(bg, g, index.Options{Samples: 16, Seed: 32}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	all, err := core.ComputeAll(bg, x, core.Options{}, checkpoint.Config{})
	if err != nil {
		t.Fatal(err)
	}
	spheres := SpheresOf(all)
	seeds := []NodeID{0, 1}

	cases := []struct {
		entry, counter string
		run            func(ctx context.Context) error
	}{
		{"index.Build", "worlds.sampled", func(ctx context.Context) error {
			_, err := index.Build(ctx, g, index.Options{Samples: 4, Seed: 33}, checkpoint.Config{})
			return err
		}},
		{"core.ComputeAll", "core.spheres_computed", func(ctx context.Context) error {
			_, err := core.ComputeAll(ctx, x, core.Options{}, checkpoint.Config{})
			return err
		}},
		{"cascade.ExpectedSpread", "cascade.trials", func(ctx context.Context) error {
			_, err := cascade.ExpectedSpread(ctx, g, seeds, 20, 34, worlds.IC, 2, checkpoint.Config{})
			return err
		}},
		{"infmax.Std", "infmax.rounds", func(ctx context.Context) error {
			_, err := infmax.Std(ctx, x, 2)
			return err
		}},
		{"infmax.StdMC", "infmax.rounds", func(ctx context.Context) error {
			_, err := infmax.StdMC(ctx, g, 2, infmax.MCOptions{Trials: 10, Seed: 35})
			return err
		}},
		{"infmax.TC", "infmax.rounds", func(ctx context.Context) error {
			_, err := infmax.TC(ctx, g, spheres, 2, infmax.TCOptions{})
			return err
		}},
		{"infmax.RR", "infmax.rr_sets", func(ctx context.Context) error {
			_, err := infmax.RR(ctx, g, 2, infmax.RROptions{Sets: 50, Seed: 36}, worlds.IC, checkpoint.Config{})
			return err
		}},
		{"infmax.RRAuto", "infmax.rr_sets", func(ctx context.Context) error {
			_, _, err := infmax.RRAuto(ctx, g, 2, infmax.RRAutoOptions{Epsilon: 0.5, Seed: 37, MaxSets: 500}, worlds.IC)
			return err
		}},
		{"sketch.Build", "sketch.build.worlds", func(ctx context.Context) error {
			_, err := sketch.Build(ctx, x, sketch.Options{K: 4, Seed: 38})
			return err
		}},
		{"pool.Run", "pool.tasks_done", func(ctx context.Context) error {
			return pool.Run(ctx, 8, pool.Options{Workers: 2}, func(_, _ int) error { return nil })
		}},
		{"checkpointed index.Build", "checkpoint.flushes", func(ctx context.Context) error {
			cfg := checkpoint.Config{Path: filepath.Join(t.TempDir(), "idx.ckpt"), FlushEvery: 1}
			_, err := index.Build(ctx, g, index.Options{Samples: 4, Seed: 39}, cfg)
			return err
		}},
	}
	for _, c := range cases {
		t.Run(c.entry, func(t *testing.T) {
			attached := telemetry.New()
			x.SetTelemetry(attached)
			defer x.SetTelemetry(nil)
			if err := c.run(bg); err != nil {
				t.Fatalf("bare ctx: %v", err)
			}
			if n := attached.Counter(c.counter).Value(); n != 0 {
				t.Fatalf("bare ctx: the index's registry recorded %s = %d, want nothing", c.counter, n)
			}
			reg := telemetry.New()
			if err := c.run(telemetry.NewContext(bg, reg)); err != nil {
				t.Fatal(err)
			}
			if n := reg.Counter(c.counter).Value(); n == 0 {
				t.Fatalf("the ctx's registry did not move %s", c.counter)
			}
		})
	}
}
