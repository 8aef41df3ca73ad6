package main

import (
	"bytes"
	"encoding/json"
	"os"
	"reflect"
	"testing"

	"soi/internal/telemetry"
)

func testPopulation(t *testing.T) *population {
	t.Helper()
	g, err := makeGraph(benchGraphSpec, graphSeed)
	if err != nil {
		t.Fatal(err)
	}
	return newPopulation(g, benchGraphSpec.NodesPerCopy)
}

// The schedule is the benchmark's input: the same seed must send the same
// requests at the same times, byte for byte, and another seed other ones.
func TestScheduleIsAFunctionOfTheSeed(t *testing.T) {
	pop := testPopulation(t)
	for name, w := range workloads {
		a := buildSchedule(w, 7, 3, pop).encode()
		b := buildSchedule(w, 7, 3, pop).encode()
		c := buildSchedule(w, 8, 3, pop).encode()
		if len(a) == 0 {
			t.Fatalf("%s: empty schedule", name)
		}
		if !bytes.Equal(a, b) {
			t.Errorf("%s: seed 7 gave two different schedules", name)
		}
		if bytes.Equal(a, c) {
			t.Errorf("%s: seeds 7 and 8 gave the same schedule", name)
		}
	}
}

// Cold workloads must miss soid's cache: no request URL may repeat within a
// schedule, warm-up included, and every spread must touch both shards.
func TestColdKeysNeverRepeat(t *testing.T) {
	pop := testPopulation(t)
	n := int64(benchGraphSpec.NodesPerCopy)
	for _, name := range []string{"cold-dense", "cold-sketch"} {
		s := buildSchedule(workloads[name], 3, 20, pop)
		seen := map[int64]bool{}
		for _, r := range append(append([]request{}, s.warmup...), s.measured...) {
			ids := r.Seeds
			if r.Kind.endpoint() == "sphere" {
				ids = []int64{r.Node}
			}
			shards := map[bool]bool{}
			for _, id := range ids {
				if seen[id] {
					t.Fatalf("%s: node %d queried twice", name, id)
				}
				seen[id] = true
				shards[id < n] = true
			}
			if len(r.Seeds) > 0 && len(shards) != 2 {
				t.Fatalf("%s: spread %v stays on one shard", name, r.Seeds)
			}
		}
	}
}

// Stratified draws cover every cost stratum evenly: after any whole number
// of rounds each stratum has given the same number of nodes.
func TestFreshDrawsCoverStrataEvenly(t *testing.T) {
	pop := testPopulation(t)
	k := newKeys(1, "strata", pop)
	rounds := 20
	count := map[int64]int{}
	stratumOf := map[int64]int{}
	for s, st := range pop.strata[0] {
		for _, id := range st {
			stratumOf[id] = s
		}
	}
	for i := 0; i < rounds*len(pop.strata[0]); i++ {
		count[int64(stratumOf[k.streams[0].next(0)])]++
	}
	for s := range pop.strata[0] {
		if count[int64(s)] != rounds {
			t.Fatalf("stratum %d drawn %d times in %d rounds", s, count[int64(s)], rounds)
		}
	}
}

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// Every metric the benchmark prints must be declared in BENCHMARK.json with
// the same unit, and every declared metric and workload must exist here.
func TestMetricNamesMatchBenchmarkJSON(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var f benchmarkFile
	if err := json.Unmarshal(b, &f); err != nil {
		t.Fatal(err)
	}
	check := func(list string, declared []metricDef, printed []metricDef) {
		if len(declared) != len(printed) {
			t.Errorf("%s: BENCHMARK.json declares %d metrics, the benchmark prints %d", list, len(declared), len(printed))
		}
		want := map[string]string{}
		for _, d := range declared {
			want[d.Name] = d.Unit
		}
		for _, p := range printed {
			unit, ok := want[p.Name]
			switch {
			case !ok:
				t.Errorf("%s: %s is printed but not declared", list, p.Name)
			case unit != p.Unit:
				t.Errorf("%s: %s is printed in %s, declared in %s", list, p.Name, p.Unit, unit)
			}
		}
	}
	var e2e, layers []metricDef
	for _, m := range f.EndToEnd {
		e2e = append(e2e, metricDef{m.Name, m.Unit})
	}
	for _, m := range f.PerLayer {
		layers = append(layers, metricDef{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)

	names := workloadNames()
	if len(f.Workloads) != len(names) {
		t.Errorf("BENCHMARK.json declares %d workloads, the benchmark has %d", len(f.Workloads), len(names))
	}
	have := map[string]bool{}
	for _, n := range names {
		have[n] = true
	}
	for _, w := range f.Workloads {
		if !have[w.Name] {
			t.Errorf("workload %s is declared but not implemented", w.Name)
		}
	}
}

// The result line carries every metric of the list the run was asked for
// and nothing else.
func TestResultLineHasEveryMetric(t *testing.T) {
	o := &outcome{attempted: 1, values: map[string]float64{}}
	for _, d := range endToEnd {
		o.values[d.Name] = 1
	}
	res, err := resultFor(o, false)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(endToEnd) || !res.Correct {
		t.Fatalf("result %+v", res)
	}
	delete(o.values, "p50_ms")
	if _, err := resultFor(o, false); err == nil {
		t.Fatal("a missing end-to-end metric was not reported")
	}
	res, err = resultFor(o, true)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Metrics) != len(perLayer) {
		t.Fatalf("traced result has %d metrics, want %d", len(res.Metrics), len(perLayer))
	}
}

// A /metrics scrape lists only the histogram buckets that hold an
// observation, cumulatively. When a bucket first fills during the measured
// phase, the earlier scrape's count at its bound is that of the bucket
// below it, not 0: the delta must hold only the new observations.
func TestHistDeltaBucketFirstSeenInTheLaterScrape(t *testing.T) {
	const h = "lat"
	scrape := func(count, sum float64, cum map[string]float64) metrics {
		m := metrics{h + "_count": count, h + "_sum": sum, h + `_bucket{le="+Inf"}`: count}
		for le, n := range cum {
			m[h+`_bucket{le="`+le+`"}`] = n
		}
		return m
	}
	before := []metrics{
		scrape(5, 5, map[string]float64{"1": 5}),
		scrape(4, 20, map[string]float64{"7": 4}),
	}
	after := []metrics{
		// Daemon 0 gained 3 observations in (1,3], a bucket it had not used.
		scrape(8, 14, map[string]float64{"1": 5, "3": 8}),
		// Daemon 1 gained 2 in [0,1] and 1 in (3,7].
		scrape(7, 27, map[string]float64{"1": 2, "7": 7}),
	}
	got := histDelta(before, after, h, 0, 1)
	want := telemetry.HistogramSnapshot{Count: 6, Sum: 16, Buckets: []telemetry.Bucket{
		{Le: 1, Count: 2}, {Le: 3, Count: 3}, {Le: 7, Count: 1},
	}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("histDelta = %+v, want %+v", got, want)
	}
}
