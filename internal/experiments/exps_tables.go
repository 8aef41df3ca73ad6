package experiments

import (
	"soi/internal/stats"
)

// Table1Row is one line of the dataset-characteristics table (paper Table
// 1, extended with the structural properties the analogs are matched on).
type Table1Row struct {
	Name         string
	Nodes        int
	Edges        int
	Directed     bool
	Method       string
	MeanProb     float64
	MedianDegree float64
	Reciprocity  float64
	GiniDegree   float64
}

// Table1 materializes every configured dataset and reports its
// characteristics.
func Table1(cfg Config) ([]Table1Row, error) {
	cfg.defaults()
	var rows []Table1Row
	tbl := stats.NewTable("dataset", "|V|", "|E|", "type", "probabilities", "mean p",
		"median deg", "reciprocity", "gini(deg)")
	for _, name := range cfg.Datasets {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		kind := "directed"
		if !d.Directed {
			kind = "undirected"
		}
		prof := d.Topology.Profile()
		row := Table1Row{
			Name:         d.Name,
			Nodes:        d.Graph.NumNodes(),
			Edges:        d.Graph.NumEdges(),
			Directed:     d.Directed,
			Method:       d.Method,
			MeanProb:     d.Graph.MeanProb(),
			MedianDegree: prof.MedianOutDegree,
			Reciprocity:  prof.Reciprocity,
			GiniDegree:   prof.GiniOutDegree,
		}
		rows = append(rows, row)
		tbl.AddRow(row.Name, row.Nodes, row.Edges, kind, row.Method, row.MeanProb,
			row.MedianDegree, row.Reciprocity, row.GiniDegree)
	}
	cfg.printf("Table 1: dataset characteristics (synthetic analogs, scale=%.2f)\n%s\n",
		cfg.Scale, tbl)
	return rows, nil
}

// Fig3Series is the empirical CDF of edge probabilities for one dataset
// (paper Figure 3, one curve).
type Fig3Series struct {
	Dataset string
	Method  string
	CDF     []stats.CDFPoint
}

// Fig3 computes the edge-probability CDFs grouped by assignment method.
// The fixed-probability datasets are skipped, as in the paper ("we do not
// report the distribution for the fixed probability method").
func Fig3(cfg Config) ([]Fig3Series, error) {
	cfg.defaults()
	var out []Fig3Series
	for _, name := range cfg.Datasets {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		if d.Method == "fixed" {
			continue
		}
		ps := d.EdgeProbabilities()
		out = append(out, Fig3Series{
			Dataset: d.Name,
			Method:  d.Method,
			CDF:     stats.CDF(ps, 11),
		})
	}
	for _, s := range out {
		tbl := stats.NewTable("p", "F(p)")
		for _, pt := range s.CDF {
			tbl.AddRow(pt.X, pt.F)
		}
		cfg.printf("Figure 3 [%s, %s]: CDF of edge probabilities\n%s\n", s.Dataset, s.Method, tbl)
	}
	return out, nil
}

// Table2Row reports the typical-cascade size statistics of one dataset
// (paper Table 2).
type Table2Row struct {
	Dataset string
	Avg     float64
	SD      float64
	Max     float64
}

// Table2 computes the typical cascade of every node in every configured
// dataset and reports avg/sd/max of |C̃*|.
func Table2(cfg Config) ([]Table2Row, error) {
	cfg.defaults()
	var rows []Table2Row
	tbl := stats.NewTable("dataset", "avg(|C*|)", "sd(|C*|)", "max(|C*|)")
	for _, name := range cfg.Datasets {
		d, err := cfg.loadDataset(name)
		if err != nil {
			return nil, err
		}
		x, err := cfg.buildIndex(d.Graph)
		if err != nil {
			return nil, err
		}
		results, _, err := cfg.spheresAndResults(x, 0, cfg.Seed)
		if err != nil {
			return nil, err
		}
		sizes := make([]float64, len(results))
		for i := range results {
			sizes[i] = float64(results[i].Size())
		}
		s := stats.Summarize(sizes)
		row := Table2Row{Dataset: d.Name, Avg: s.Mean, SD: s.SD, Max: s.Max}
		rows = append(rows, row)
		tbl.AddRow(row.Dataset, row.Avg, row.SD, row.Max)
	}
	cfg.printf("Table 2: typical cascade size statistics (ℓ=%d)\n%s\n", cfg.Samples, tbl)
	return rows, nil
}
