package experiments

import (
	"bytes"
	"encoding/csv"
	"os"
	"strings"
	"testing"
)

// fastConfig keeps the full pipeline under test runtime budgets.
func fastConfig(datasets ...string) Config {
	return Config{
		Scale:       0.05,
		Samples:     30,
		EvalSamples: 30,
		K:           8,
		Seed:        1,
		Datasets:    datasets,
	}
}

func TestTable1(t *testing.T) {
	var buf bytes.Buffer
	cfg := fastConfig("nethept-W", "nethept-F")
	cfg.Out = &buf
	rows, err := Table1(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Nodes == 0 || r.Edges == 0 {
			t.Fatalf("empty dataset row %+v", r)
		}
	}
	if !strings.Contains(buf.String(), "Table 1") {
		t.Fatal("missing rendered table")
	}
}

func TestFig3SkipsFixed(t *testing.T) {
	cfg := fastConfig("nethept-W", "nethept-F", "twitter-S")
	series, err := Fig3(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 { // fixed skipped
		t.Fatalf("got %d series", len(series))
	}
	for _, s := range series {
		if s.Method == "fixed" {
			t.Fatal("fixed method not skipped")
		}
		if len(s.CDF) == 0 {
			t.Fatalf("empty CDF for %s", s.Dataset)
		}
		for i := 1; i < len(s.CDF); i++ {
			if s.CDF[i].F < s.CDF[i-1].F {
				t.Fatalf("non-monotone CDF for %s", s.Dataset)
			}
		}
	}
}

func TestTable2(t *testing.T) {
	rows, err := Table2(fastConfig("nethept-W", "nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 {
		t.Fatalf("got %d rows", len(rows))
	}
	for _, r := range rows {
		if r.Avg < 1 {
			t.Fatalf("%s: avg typical cascade %v < 1 (source always included)", r.Dataset, r.Avg)
		}
		if r.Max < r.Avg {
			t.Fatalf("%s: max %v < avg %v", r.Dataset, r.Max, r.Avg)
		}
	}
	// Fixed-0.1 cascades are larger than WC cascades on the same topology
	// (Table 2's "-F produces larger cascades than -W" observation).
	if rows[1].Avg <= rows[0].Avg {
		t.Logf("note: fixed avg %v vs WC avg %v (usually larger at full scale)", rows[1].Avg, rows[0].Avg)
	}
}

func TestFig4(t *testing.T) {
	rows, err := Fig4(fastConfig("nethept-W"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.MedianMsMax < r.MedianMsP50 || r.CostMsMax < r.CostMsP50 {
		t.Fatalf("percentile ordering broken: %+v", r)
	}
	if r.NodesPerSecond <= 0 {
		t.Fatalf("throughput %v", r.NodesPerSecond)
	}
}

func TestFig5(t *testing.T) {
	buckets, err := Fig5(fastConfig("nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(buckets) == 0 {
		t.Fatal("no buckets")
	}
	total := 0
	for _, b := range buckets {
		total += b.N
		if b.MeanCost < 0 || b.MeanCost > 1 || b.MaxCost < b.MeanCost {
			t.Fatalf("bad bucket %+v", b)
		}
	}
	if total == 0 {
		t.Fatal("buckets empty")
	}
}

func TestFig6(t *testing.T) {
	results, err := Fig6(fastConfig("nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	r := results[0]
	if len(r.Points) == 0 {
		t.Fatal("no points")
	}
	prevStd, prevTC := 0.0, 0.0
	for _, p := range r.Points {
		if p.SpreadStd < prevStd-1e-9 || p.SpreadTC < prevTC-1e-9 {
			t.Fatalf("spread decreased at k=%d", p.K)
		}
		prevStd, prevTC = p.SpreadStd, p.SpreadTC
		if p.SpreadStd < 1 || p.SpreadTC < 1 {
			t.Fatalf("spread below 1 at k=%d: %+v", p.K, p)
		}
	}
}

func TestFig7(t *testing.T) {
	cfg := fastConfig("nethept-F")
	results, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	for _, p := range results[0].RatiosStd {
		if p.Ratio < 0 || p.Ratio > 1+1e-9 {
			t.Fatalf("std ratio %v out of range", p.Ratio)
		}
	}
	if len(results[0].RatiosTC) == 0 {
		t.Fatal("no TC ratios")
	}
}

func TestFig8(t *testing.T) {
	results, err := Fig8(fastConfig("nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 {
		t.Fatalf("got %d results", len(results))
	}
	for _, p := range results[0].Points {
		if p.CostStd < 0 || p.CostStd > 1 || p.CostTC < 0 || p.CostTC > 1 {
			t.Fatalf("cost out of [0,1]: %+v", p)
		}
	}
}

func TestRunDispatch(t *testing.T) {
	for _, name := range []string{"table1"} {
		if err := Run(name, fastConfig("nethept-W")); err != nil {
			t.Fatalf("Run(%s): %v", name, err)
		}
	}
	if err := Run("nope", fastConfig("nethept-W")); err == nil {
		t.Fatal("accepted unknown experiment")
	}
	if len(All()) != 8 {
		t.Fatalf("All() = %v", All())
	}
}

func TestCheckpoints(t *testing.T) {
	cps := checkpoints(200)
	if cps[0] != 1 || cps[len(cps)-1] != 200 {
		t.Fatalf("checkpoints(200) = %v", cps)
	}
	for i := 1; i < len(cps); i++ {
		if cps[i] <= cps[i-1] {
			t.Fatalf("checkpoints not increasing: %v", cps)
		}
	}
	small := checkpoints(3)
	if len(small) != 3 {
		t.Fatalf("checkpoints(3) = %v", small)
	}
}

func TestExtLT(t *testing.T) {
	rows, err := ExtLT(fastConfig("nethept-W"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.AvgIC < 1 || r.AvgLT < 1 {
		t.Fatalf("averages below 1: %+v", r)
	}
	if r.CostIC < 0 || r.CostIC > 1 || r.CostLT < 0 || r.CostLT > 1 {
		t.Fatalf("costs out of range: %+v", r)
	}
}

func TestExtLTRejectsNonWC(t *testing.T) {
	if _, err := ExtLT(fastConfig("nethept-F")); err == nil {
		t.Fatal("accepted a fixed-probability dataset")
	}
}

func TestExtMethods(t *testing.T) {
	rows, err := ExtMethods(fastConfig("nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 5 {
		t.Fatalf("got %d rows", len(rows))
	}
	byMethod := map[string]float64{}
	for _, r := range rows {
		if r.Spread <= 0 {
			t.Fatalf("non-positive spread: %+v", r)
		}
		byMethod[r.Method] = r.Spread
	}
	// At this tiny scale every method saturates the giant component, so
	// only sanity-check that no principled method collapses: all spreads
	// must lie within a modest band of the best.
	best := 0.0
	for _, s := range byMethod {
		if s > best {
			best = s
		}
	}
	for m, s := range byMethod {
		if s < 0.6*best {
			t.Fatalf("method %s spread %v far below best %v: %+v", m, s, best, byMethod)
		}
	}
}

func TestRunDispatchExtensions(t *testing.T) {
	if err := Run("ext-lt", fastConfig("nethept-W")); err != nil {
		t.Fatal(err)
	}
	if len(Extensions()) != 3 {
		t.Fatalf("Extensions() = %v", Extensions())
	}
}

func TestCSVExport(t *testing.T) {
	dir := t.TempDir()
	cfg := fastConfig("nethept-F")
	series, err := Fig3(fastConfig("nethept-W"))
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFig3CSV(series, dir); err != nil {
		t.Fatal(err)
	}
	res6, err := Fig6(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFig6CSV(res6, dir); err != nil {
		t.Fatal(err)
	}
	res7, err := Fig7(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFig7CSV(res7, dir); err != nil {
		t.Fatal(err)
	}
	res8, err := Fig8(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if err := SaveFig8CSV(res8, dir); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) < 4 {
		t.Fatalf("expected at least 4 CSV files, got %d", len(entries))
	}
	// Every file parses back as CSV with a header and at least one row.
	for _, e := range entries {
		f, err := os.Open(dir + "/" + e.Name())
		if err != nil {
			t.Fatal(err)
		}
		rows, err := csv.NewReader(f).ReadAll()
		f.Close()
		if err != nil {
			t.Fatalf("%s: %v", e.Name(), err)
		}
		if len(rows) < 2 {
			t.Fatalf("%s: only %d rows", e.Name(), len(rows))
		}
	}
}

func TestRunWithCSVFallsBack(t *testing.T) {
	// Non-figure experiments just run.
	if err := RunWithCSV("table1", fastConfig("nethept-W"), t.TempDir()); err != nil {
		t.Fatal(err)
	}
	// Empty dir behaves like Run.
	if err := RunWithCSV("table1", fastConfig("nethept-W"), ""); err != nil {
		t.Fatal(err)
	}
}

func TestFig6Replicated(t *testing.T) {
	agg, err := Fig6Replicated(fastConfig("nethept-F"), 2)
	if err != nil {
		t.Fatal(err)
	}
	if len(agg) != 1 {
		t.Fatalf("got %d aggregates", len(agg))
	}
	a := agg[0]
	if a.Replicas != 2 || len(a.Points) == 0 {
		t.Fatalf("aggregate %+v", a)
	}
	for _, p := range a.Points {
		if p.MeanStd < 1 || p.MeanTC < 1 || p.SDStd < 0 || p.SDTC < 0 {
			t.Fatalf("bad point %+v", p)
		}
	}
	if a.Crossovers < 0 || a.Crossovers > 2 {
		t.Fatalf("crossovers %d", a.Crossovers)
	}
	if _, err := Fig6Replicated(fastConfig("nethept-F"), 0); err == nil {
		t.Fatal("accepted 0 replicas")
	}
}

func TestExtModes(t *testing.T) {
	rows, err := ExtModes(fastConfig("nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(rows) != 1 {
		t.Fatalf("got %d rows", len(rows))
	}
	r := rows[0]
	if r.MeanTakeoff < 0 || r.MeanTakeoff > 1 || r.BimodalFrac < 0 || r.BimodalFrac > 1 {
		t.Fatalf("fractions out of range: %+v", r)
	}
	if r.MeanSphere < 1 || r.MeanDominantMode < 1 {
		t.Fatalf("sizes below 1: %+v", r)
	}
}

func TestFig7Shared(t *testing.T) {
	results, err := Fig7Shared(fastConfig("nethept-F"))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 1 || len(results[0].RatiosStd) == 0 {
		t.Fatalf("results %+v", results)
	}
	for _, p := range results[0].RatiosStd {
		if p.Ratio < 0 || p.Ratio > 1+1e-9 {
			t.Fatalf("ratio %v out of range", p.Ratio)
		}
	}
}
