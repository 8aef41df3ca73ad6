package experiments

import (
	"fmt"

	"soi/internal/cascade"
	"soi/internal/checkpoint"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/stats"
	"soi/internal/worlds"
)

// Extension experiments: beyond the paper's artifacts, the library supports
// the Linear Threshold model (via its live-edge equivalence) and the
// reverse-reachable sketch method the paper's related work discusses. These
// experiments exercise both at the same scale as the main suite.

// ExtLTRow compares typical-cascade statistics under IC and LT on the same
// weighted-cascade graph (WC weights satisfy the LT budget, so both models
// are defined on identical inputs).
type ExtLTRow struct {
	Dataset string
	AvgIC   float64
	AvgLT   float64
	CostIC  float64
	CostLT  float64
}

// ExtLT computes spheres of influence under both propagation models for the
// -W configurations.
func ExtLT(cfg Config) ([]ExtLTRow, error) {
	cfg.defaults()
	names := cfg.Datasets
	if len(names) == 12 {
		names = []string{"nethept-W", "epinions-W", "slashdot-W"}
	}
	var rows []ExtLTRow
	tbl := stats.NewTable("dataset", "avg|C*| IC", "avg|C*| LT", "mean cost IC", "mean cost LT")
	for _, name := range names {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		if d.Method != "wc" {
			return nil, fmt.Errorf("experiments: ExtLT requires a -W configuration, got %s", name)
		}
		row := ExtLTRow{Dataset: d.Name}
		for _, model := range []worlds.Model{worlds.IC, worlds.LT} {
			x, err := index.Build(cfg.ctx(), d.Graph, index.Options{
				Samples: cfg.Samples,
				Seed:    cfg.Seed ^ methodWorldTag,
				Model:   model,
			}, checkpoint.Config{})
			if err != nil {
				return nil, err
			}
			results, err := core.ComputeAll(cfg.ctx(), x, core.Options{
				CostSamples: cfg.EvalSamples,
				CostSeed:    cfg.Seed,
			}, checkpoint.Config{})
			if err != nil {
				return nil, err
			}
			var sizeSum, costSum float64
			for i := range results {
				sizeSum += float64(results[i].Size())
				costSum += results[i].ExpectedCost
			}
			avg := sizeSum / float64(len(results))
			cost := costSum / float64(len(results))
			if model == worlds.IC {
				row.AvgIC, row.CostIC = avg, cost
			} else {
				row.AvgLT, row.CostLT = avg, cost
			}
		}
		rows = append(rows, row)
		tbl.AddRow(row.Dataset, row.AvgIC, row.AvgLT, row.CostIC, row.CostLT)
	}
	cfg.printf("Extension: spheres of influence under IC vs LT (WC weights)\n%s\n", tbl)
	return rows, nil
}

// ExtMethodsRow is one method's score in the cross-method comparison.
type ExtMethodsRow struct {
	Dataset string
	Method  string
	Spread  float64
	Evals   int
}

// ExtMethods compares all seed-selection methods (TC, std shared-worlds,
// RR sketch, degree, random) on held-out worlds at k = cfg.K.
func ExtMethods(cfg Config) ([]ExtMethodsRow, error) {
	cfg.defaults()
	names := cfg.Datasets
	if len(names) == 12 {
		names = []string{"nethept-F", "epinions-F"}
	}
	var rows []ExtMethodsRow
	for _, name := range names {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		x, err := cfg.buildIndex(d.Graph)
		if err != nil {
			return nil, err
		}
		eval, err := cfg.buildEvalIndex(d.Graph)
		if err != nil {
			return nil, err
		}
		_, spheres, err := cfg.spheresAndResults(x, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		run := func(m string) (infmax.Selection, error) {
			switch m {
			case "tc":
				return infmax.TC(cfg.ctx(), d.Graph, spheres, cfg.K, infmax.TCOptions{})
			case "std":
				return infmax.Std(cfg.ctx(), x, cfg.K)
			case "rr":
				return infmax.RR(cfg.ctx(), d.Graph, cfg.K, infmax.RROptions{Sets: 20 * cfg.Samples, Seed: cfg.Seed}, worlds.IC, checkpoint.Config{})
			case "degree":
				return infmax.Degree(d.Graph, cfg.K)
			default:
				return infmax.Random(d.Graph, cfg.K, cfg.Seed)
			}
		}
		tbl := stats.NewTable("method", "σ(S) held-out", "gain evals")
		s := eval.NewScratch()
		for _, m := range []string{"tc", "std", "rr", "degree", "random"} {
			sel, err := run(m)
			if err != nil {
				return nil, err
			}
			spread := cascade.SpreadFromIndex(eval, sel.Seeds, s)
			rows = append(rows, ExtMethodsRow{Dataset: d.Name, Method: m, Spread: spread, Evals: sel.LazyEvaluations})
			tbl.AddRow(m, spread, sel.LazyEvaluations)
		}
		cfg.printf("Extension: method comparison [%s], k=%d\n%s\n", d.Name, cfg.K, tbl)
	}
	return rows, nil
}

// ExtModesRow summarizes the cascade-mode structure of one dataset.
type ExtModesRow struct {
	Dataset string
	// MeanTakeoff is the average take-off probability over sampled nodes.
	MeanTakeoff float64
	// BimodalFrac is the fraction of sampled nodes with >= 2 distinct modes.
	BimodalFrac float64
	// MeanSphere and MeanDominantMode compare the typical cascade size with
	// the dominant mode's median size (equal when unimodal).
	MeanSphere       float64
	MeanDominantMode float64
}

// ExtModes runs cascade-mode analysis (k-medoids, k=2) on a sample of nodes
// per dataset, quantifying the die-out/take-off structure that explains the
// Table-2 regimes: supercritical -F configurations show high bimodality with
// singleton dominant modes, subcritical ones are unimodal.
func ExtModes(cfg Config) ([]ExtModesRow, error) {
	cfg.defaults()
	names := cfg.Datasets
	if len(names) == 12 {
		names = []string{"nethept-W", "nethept-F"}
	}
	const sampleNodes = 100
	var rows []ExtModesRow
	tbl := stats.NewTable("dataset", "mean takeoff", "bimodal frac", "mean |sphere|", "mean |dominant mode|")
	for _, name := range names {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		x, err := cfg.buildIndex(d.Graph)
		if err != nil {
			return nil, err
		}
		n := d.Graph.NumNodes()
		step := n / sampleNodes
		if step < 1 {
			step = 1
		}
		row := ExtModesRow{Dataset: d.Name}
		count := 0
		for v := 0; v < n; v += step {
			modes := core.AnalyzeModes(x, graph.NodeID(v), 2)
			sphere := core.Compute(x, graph.NodeID(v), core.Options{})
			row.MeanTakeoff += core.TakeoffProbability(modes)
			if len(modes) >= 2 {
				row.BimodalFrac++
			}
			row.MeanSphere += float64(sphere.Size())
			row.MeanDominantMode += float64(len(modes[0].Median))
			count++
		}
		row.MeanTakeoff /= float64(count)
		row.BimodalFrac /= float64(count)
		row.MeanSphere /= float64(count)
		row.MeanDominantMode /= float64(count)
		rows = append(rows, row)
		tbl.AddRow(row.Dataset, row.MeanTakeoff, row.BimodalFrac, row.MeanSphere, row.MeanDominantMode)
	}
	cfg.printf("Extension: cascade-mode analysis (k=2 medoids, %d nodes sampled)\n%s\n", sampleNodes, tbl)
	return rows, nil
}
