package soi

// The benchmark harness regenerates every table and figure of the paper at a
// reduced scale (one benchmark per artifact; see EXPERIMENTS.md for full-
// scale numbers) plus ablations of the design choices DESIGN.md calls out.
// Quality metrics are attached with b.ReportMetric so `go test -bench` both
// times the pipelines and reports the reproduced quantities.

import (
	"context"
	"testing"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/experiments"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/jaccard"
	"soi/internal/rng"
	"soi/internal/scc"
	"soi/internal/worlds"
)

// benchConfig is the reduced scale every artifact benchmark runs at.
func benchConfig(datasets ...string) experiments.Config {
	return experiments.Config{
		Scale:       0.1,
		Samples:     60,
		EvalSamples: 60,
		K:           15,
		Seed:        1,
		Datasets:    datasets,
	}
}

func BenchmarkTable1DatasetStats(b *testing.B) {
	cfg := benchConfig("nethept-W", "nethept-F", "epinions-W", "epinions-F")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table1(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(rows[0].Edges), "edges")
		}
	}
}

func BenchmarkFig3ProbabilityCDF(b *testing.B) {
	cfg := benchConfig("twitter-S", "twitter-G", "nethept-W")
	for i := 0; i < b.N; i++ {
		series, err := experiments.Fig3(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(float64(len(series)), "series")
		}
	}
}

func BenchmarkTable2TypicalCascadeStats(b *testing.B) {
	cfg := benchConfig("nethept-W", "nethept-F")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Table2(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[1].Avg, "avg|C*|-F")
		}
	}
}

func BenchmarkFig4PerNodeTiming(b *testing.B) {
	cfg := benchConfig("nethept-F")
	for i := 0; i < b.N; i++ {
		rows, err := experiments.Fig4(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			b.ReportMetric(rows[0].NodesPerSecond, "nodes/s")
		}
	}
}

func BenchmarkFig5CostVsSize(b *testing.B) {
	cfg := benchConfig("nethept-F")
	for i := 0; i < b.N; i++ {
		buckets, err := experiments.Fig5(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 && len(buckets) > 0 {
			b.ReportMetric(buckets[0].MeanCost, "cost-smallest-bucket")
		}
	}
}

func BenchmarkFig6InfluenceMaximization(b *testing.B) {
	cfg := benchConfig("nethept-F")
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig6(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			last := results[0].Points[len(results[0].Points)-1]
			b.ReportMetric(last.SpreadTC/last.SpreadStd, "tc/std-spread@kmax")
		}
	}
}

func BenchmarkFig7Saturation(b *testing.B) {
	cfg := benchConfig("nethept-F")
	cfg.K = 10
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig7(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pts := results[0].RatiosStd
			b.ReportMetric(pts[len(pts)-1].Ratio, "std-MG-ratio@kmax")
		}
	}
}

func BenchmarkFig8SeedSetStability(b *testing.B) {
	cfg := benchConfig("nethept-F")
	for i := 0; i < b.N; i++ {
		results, err := experiments.Fig8(cfg)
		if err != nil {
			b.Fatal(err)
		}
		if i == 0 {
			pts := results[0].Points
			b.ReportMetric(pts[len(pts)-1].CostTC, "tc-cost@kmax")
			b.ReportMetric(pts[len(pts)-1].CostStd, "std-cost@kmax")
		}
	}
}

// benchGraph builds the shared ablation workload: a mid-size supercritical
// analog.
func benchGraph(b *testing.B) *Graph {
	b.Helper()
	d, err := LoadDataset("nethept-F", DatasetConfig{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	return d.Graph
}

// BenchmarkAblationReduce times what Algorithm 1's transitive reduction
// adds to the per-world condensation step (Build always reduces), and
// reports the condensation edges it removes.
func BenchmarkAblationReduce(b *testing.B) {
	g := benchGraph(b)
	ws := worlds.SampleMany(g, 2, 100)
	decs := make([]*scc.Decomposition, len(ws))
	for i, w := range ws {
		decs[i] = scc.Tarjan(w)
	}
	for _, leg := range []struct {
		name   string
		reduce bool
	}{{"condense", false}, {"condense+reduce", true}} {
		b.Run(leg.name, func(b *testing.B) {
			var edges int64
			for i := 0; i < b.N; i++ {
				edges = 0
				for j, w := range ws {
					dag := scc.Condense(w, decs[j])
					if leg.reduce {
						dag = scc.Reduce(dag, scc.DefaultMaxExactReduction)
					}
					for _, succs := range dag {
						edges += int64(len(succs))
					}
				}
			}
			b.ReportMetric(float64(edges), "condensation-edges")
		})
	}
}

func BenchmarkAblationSCCIndexVsDirectBFS(b *testing.B) {
	g := benchGraph(b)
	const ell = 100
	x, err := index.Build(context.Background(), g, index.Options{Samples: ell, Seed: 3}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	ws := worlds.SampleMany(g, 3, ell)
	b.Run("scc-index", func(b *testing.B) {
		s := x.NewScratch()
		var buf []NodeID
		for i := 0; i < b.N; i++ {
			v := NodeID(i % g.NumNodes())
			buf = x.Cascade(v, i%ell, s, buf[:0])
		}
	})
	b.Run("direct-bfs", func(b *testing.B) {
		visited := make([]bool, g.NumNodes())
		var buf []NodeID
		for i := 0; i < b.N; i++ {
			v := NodeID(i % g.NumNodes())
			buf = ws[i%ell].Reachable(v, visited, buf[:0])
		}
	})
}

func BenchmarkAblationMedianAlgorithms(b *testing.B) {
	g := benchGraph(b)
	x, err := index.Build(context.Background(), g, index.Options{Samples: 200, Seed: 4}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	s := x.NewScratch()
	// Pick a node with nontrivial cascades.
	probe := NodeID(0)
	best := 0
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if sz := x.CascadeSize(v, 0, s); sz > best {
			best, probe = sz, v
		}
	}
	samples := x.Cascades(probe, s)
	for _, alg := range []struct {
		name string
		run  func() jaccard.Median
	}{
		{"prefix", func() jaccard.Median { return jaccard.Prefix(samples) }},
		{"majority", func() jaccard.Median { return jaccard.Majority(samples, 0.5) }},
	} {
		b.Run(alg.name, func(b *testing.B) {
			var med jaccard.Median
			for i := 0; i < b.N; i++ {
				med = alg.run()
			}
			b.ReportMetric(med.Cost, "median-cost")
		})
	}
}

func BenchmarkAblationCELF(b *testing.B) {
	g := benchGraph(b)
	x, err := index.Build(context.Background(), g, index.Options{Samples: 100, Seed: 5}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	const k = 15
	b.Run("celf", func(b *testing.B) {
		var evals int
		for i := 0; i < b.N; i++ {
			sel, err := infmax.Std(context.Background(), x, k)
			if err != nil {
				b.Fatal(err)
			}
			evals = sel.LazyEvaluations
		}
		b.ReportMetric(float64(evals), "gain-evals")
	})
	b.Run("naive", func(b *testing.B) {
		var evals int
		for i := 0; i < b.N; i++ {
			sel, err := infmax.StdNaive(context.Background(), x, k, nil)
			if err != nil {
				b.Fatal(err)
			}
			evals = sel.LazyEvaluations
		}
		b.ReportMetric(float64(evals), "gain-evals")
	})
}

func BenchmarkAblationSampleCount(b *testing.B) {
	// Theorem 2: a small constant ℓ already achieves near-optimal median
	// cost. Report the held-out cost of the ℓ-sample median.
	g := benchGraph(b)
	probe := NodeID(0)
	// Use the node with the largest reachable set as the interesting query.
	bestSize := 0
	for v := NodeID(0); int(v) < g.NumNodes(); v++ {
		if sz := len(g.Reachable(v)); sz > bestSize {
			bestSize, probe = sz, v
		}
	}
	for _, ell := range []int{10, 40, 160, 640} {
		b.Run(benchName(ell), func(b *testing.B) {
			var cost float64
			for i := 0; i < b.N; i++ {
				x, err := index.Build(context.Background(), g, index.Options{Samples: ell, Seed: 6}, checkpoint.Config{})
				if err != nil {
					b.Fatal(err)
				}
				res := core.Compute(x, probe, core.Options{CostSamples: 2000, CostSeed: 7})
				cost = res.ExpectedCost
			}
			b.ReportMetric(cost, "heldout-cost")
		})
	}
}

func benchName(ell int) string {
	switch ell {
	case 10:
		return "ell=10"
	case 40:
		return "ell=40"
	case 160:
		return "ell=160"
	default:
		return "ell=640"
	}
}

func BenchmarkAblationStdSharedVsMC(b *testing.B) {
	// The two InfMax_std estimators: fixed shared worlds (exact coverage)
	// vs fresh Monte-Carlo per evaluation (the paper's, noisy). Quality is
	// scored on independent simulations.
	g := benchGraph(b)
	const k = 10
	b.Run("shared-worlds", func(b *testing.B) {
		var spread float64
		for i := 0; i < b.N; i++ {
			x, err := index.Build(context.Background(), g, index.Options{Samples: 100, Seed: 8}, checkpoint.Config{})
			if err != nil {
				b.Fatal(err)
			}
			sel, err := infmax.Std(context.Background(), x, k)
			if err != nil {
				b.Fatal(err)
			}
			spread = mcSpread(b, g, sel.Seeds, 5000, 9)
		}
		b.ReportMetric(spread, "heldout-spread")
	})
	b.Run("fresh-mc", func(b *testing.B) {
		var spread float64
		for i := 0; i < b.N; i++ {
			sel, err := infmax.StdMC(context.Background(), g, k, infmax.MCOptions{Trials: 100, Seed: 10})
			if err != nil {
				b.Fatal(err)
			}
			spread = mcSpread(b, g, sel.Seeds, 5000, 9)
		}
		b.ReportMetric(spread, "heldout-spread")
	})
}

func BenchmarkIndexBuild(b *testing.B) {
	g := benchGraph(b)
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(context.Background(), g, index.Options{Samples: 200, Seed: 11}, checkpoint.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkAllTypicalCascades(b *testing.B) {
	g := benchGraph(b)
	x, err := index.Build(context.Background(), g, index.Options{Samples: 100, Seed: 12}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := core.ComputeAll(context.Background(), x, core.Options{}, checkpoint.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkExpectedSpreadEstimators(b *testing.B) {
	g := benchGraph(b)
	x, err := index.Build(context.Background(), g, index.Options{Samples: 200, Seed: 13}, checkpoint.Config{})
	if err != nil {
		b.Fatal(err)
	}
	seeds := []NodeID{0, 1, 2, 3, 4}
	b.Run("monte-carlo", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = mcSpread(b, g, seeds, 200, uint64(i))
		}
	})
	b.Run("index", func(b *testing.B) {
		s := x.NewScratch()
		for i := 0; i < b.N; i++ {
			_ = cascade.SpreadFromIndex(x, seeds, s)
		}
	})
}

var benchSink []NodeID

// BenchmarkSampleCascade times one lazy IC cascade from each node in turn.
func BenchmarkSampleCascade(b *testing.B) {
	benchForward(b, benchGraph(b), worlds.IC)
}

// BenchmarkSampleCascadeLT is BenchmarkSampleCascade under LT, over
// weighted-cascade weights (which satisfy the LT budget).
func BenchmarkSampleCascadeLT(b *testing.B) {
	d, err := LoadDataset("nethept-W", DatasetConfig{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	benchForward(b, d.Graph, worlds.LT)
}

func benchForward(b *testing.B, g *Graph, model Model) {
	smp := worlds.NewSampler(g, model)
	r := rng.New(14)
	seed := make([]NodeID, 1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed[0] = NodeID(i % g.NumNodes())
		benchSink, _ = smp.Forward(seed, r, benchSink[:0], nil, nil)
	}
}

func BenchmarkAblationRRSketch(b *testing.B) {
	// The RR sketch vs the shared-worlds greedy: similar quality at a very
	// different cost profile (sampling-dominated vs index-dominated).
	g := benchGraph(b)
	const k = 10
	b.Run("rr", func(b *testing.B) {
		var spread float64
		for i := 0; i < b.N; i++ {
			sel, err := infmax.RR(context.Background(), g, k, infmax.RROptions{Sets: 5000, Seed: 15}, worlds.IC, checkpoint.Config{})
			if err != nil {
				b.Fatal(err)
			}
			spread = mcSpread(b, g, sel.Seeds, 5000, 16)
		}
		b.ReportMetric(spread, "heldout-spread")
	})
	b.Run("greedy", func(b *testing.B) {
		var spread float64
		for i := 0; i < b.N; i++ {
			x, err := index.Build(context.Background(), g, index.Options{Samples: 100, Seed: 15}, checkpoint.Config{})
			if err != nil {
				b.Fatal(err)
			}
			sel, err := infmax.Std(context.Background(), x, k)
			if err != nil {
				b.Fatal(err)
			}
			spread = mcSpread(b, g, sel.Seeds, 5000, 16)
		}
		b.ReportMetric(spread, "heldout-spread")
	})
}

func BenchmarkLTIndexBuild(b *testing.B) {
	// The LT extension: index construction under Linear Threshold live-edge
	// sampling (weighted-cascade weights satisfy the LT budget).
	d, err := LoadDataset("nethept-W", DatasetConfig{Scale: 0.5})
	if err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := index.Build(context.Background(), d.Graph, index.Options{Samples: 200, Seed: 19, Model: worlds.LT}, checkpoint.Config{}); err != nil {
			b.Fatal(err)
		}
	}
}

// mcSpread is the held-out Monte-Carlo spread the ablations score with.
func mcSpread(tb testing.TB, g *Graph, seeds []NodeID, trials int, seed uint64) float64 {
	tb.Helper()
	est, err := cascade.ExpectedSpread(context.Background(), g, seeds, trials, seed, worlds.IC, 0, checkpoint.Config{})
	if err != nil {
		tb.Fatal(err)
	}
	return est
}
