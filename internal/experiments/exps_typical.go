package experiments

import (
	"fmt"
	"sort"

	"soi/internal/stats"
)

// Fig4Row summarizes the per-node computation-time distributions of one
// dataset (paper Figure 4): the time to compute the typical cascade C̃* and
// the time to estimate its expected cost.
type Fig4Row struct {
	Dataset        string
	MedianMsP50    float64 // median per-node time to compute C̃* (ms)
	MedianMsP99    float64
	MedianMsMax    float64
	CostMsP50      float64 // per-node time to estimate ρ(C̃*) (ms)
	CostMsP99      float64
	CostMsMax      float64
	NodesPerSecond float64
}

// Fig4 measures per-node typical-cascade and expected-cost timing across all
// nodes of every configured dataset.
func Fig4(cfg Config) ([]Fig4Row, error) {
	cfg.defaults()
	var rows []Fig4Row
	tbl := stats.NewTable("dataset", "median p50(ms)", "p99(ms)", "max(ms)",
		"cost p50(ms)", "p99(ms)", "max(ms)", "nodes/s")
	for _, name := range cfg.Datasets {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		x, err := cfg.buildIndex(d.Graph)
		if err != nil {
			return nil, err
		}
		var total float64
		results, _, err := cfg.spheresAndResults(x, cfg.EvalSamples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		medTimes := make([]float64, len(results))
		costTimes := make([]float64, len(results))
		for i := range results {
			medTimes[i] = float64(results[i].MedianTime.Microseconds()) / 1000
			costTimes[i] = float64(results[i].CostTime.Microseconds()) / 1000
			total += medTimes[i] + costTimes[i]
		}
		sortFloats(medTimes)
		sortFloats(costTimes)
		row := Fig4Row{
			Dataset:     d.Name,
			MedianMsP50: stats.Percentile(medTimes, 50),
			MedianMsP99: stats.Percentile(medTimes, 99),
			MedianMsMax: stats.Percentile(medTimes, 100),
			CostMsP50:   stats.Percentile(costTimes, 50),
			CostMsP99:   stats.Percentile(costTimes, 99),
			CostMsMax:   stats.Percentile(costTimes, 100),
		}
		if total > 0 {
			row.NodesPerSecond = float64(len(results)) / (total / 1000)
		}
		rows = append(rows, row)
		tbl.AddRow(row.Dataset, row.MedianMsP50, row.MedianMsP99, row.MedianMsMax,
			row.CostMsP50, row.CostMsP99, row.CostMsMax, row.NodesPerSecond)
	}
	cfg.printf("Figure 4: per-node computation time (ℓ=%d, cost samples=%d)\n%s\n",
		cfg.Samples, cfg.EvalSamples, tbl)
	return rows, nil
}

// Fig5Bucket is one size bucket of the cost-vs-size distribution of one
// dataset (paper Figure 5).
type Fig5Bucket struct {
	Dataset  string
	SizeLo   float64
	SizeHi   float64
	N        int
	MeanCost float64
	MaxCost  float64
}

// Fig5 computes every node's typical cascade with a held-out expected-cost
// estimate and buckets the costs by cascade size. The paper's observation —
// larger typical cascades are more reliable, and large high-cost cascades
// are practically absent — is visible as decreasing MeanCost/MaxCost with
// size.
func Fig5(cfg Config) ([]Fig5Bucket, error) {
	cfg.defaults()
	var out []Fig5Bucket
	for _, name := range cfg.Datasets {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		x, err := cfg.buildIndex(d.Graph)
		if err != nil {
			return nil, err
		}
		results, _, err := cfg.spheresAndResults(x, cfg.EvalSamples, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sizes := make([]float64, len(results))
		costs := make([]float64, len(results))
		for i := range results {
			sizes[i] = float64(results[i].Size())
			costs[i] = results[i].ExpectedCost
		}
		buckets := stats.BucketBy(sizes, costs, 8)
		rho := stats.RankCorrelation(sizes, costs)
		tbl := stats.NewTable("size range", "nodes", "mean cost", "max cost")
		for _, b := range buckets {
			if b.N == 0 {
				continue
			}
			out = append(out, Fig5Bucket{
				Dataset: d.Name, SizeLo: b.Lo, SizeHi: b.Hi,
				N: b.N, MeanCost: b.Mean, MaxCost: b.Max,
			})
			tbl.AddRow(formatRange(b.Lo, b.Hi), b.N, b.Mean, b.Max)
		}
		cfg.printf("Figure 5 [%s]: expected cost by typical-cascade size (Spearman ρ = %.3f)\n%s\n",
			d.Name, rho, tbl)
	}
	return out, nil
}

func formatRange(lo, hi float64) string {
	return fmt.Sprintf("[%.0f,%.0f)", lo, hi)
}

// sortFloats puts s in the ascending order stats.Percentile requires.
func sortFloats(s []float64) { sort.Float64s(s) }
