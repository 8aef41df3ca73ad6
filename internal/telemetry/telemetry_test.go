package telemetry

import (
	"encoding/json"
	"strings"
	"sync"
	"testing"
)

// TestConcurrentHammer drives counters, gauges, and histograms from many
// goroutines at once. Run under -race this is the registry's thread-safety
// proof; the totals check catches lost updates.
func TestConcurrentHammer(t *testing.T) {
	r := New()
	const goroutines = 16
	const perG = 10000
	var wg sync.WaitGroup
	for i := 0; i < goroutines; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			// Half the goroutines resolve handles themselves to exercise
			// concurrent registration of the same names.
			c := r.Counter("hammer.count")
			g := r.Gauge("hammer.gauge")
			h := r.Histogram("hammer.hist")
			for j := 0; j < perG; j++ {
				c.Inc()
				g.Add(1)
				g.Add(-1)
				h.Observe(int64(j % 1000))
			}
		}(i)
	}
	wg.Wait()

	if got := r.Counter("hammer.count").Value(); got != goroutines*perG {
		t.Errorf("counter = %d, want %d", got, goroutines*perG)
	}
	if got := r.Gauge("hammer.gauge").Value(); got != 0 {
		t.Errorf("gauge = %d, want 0", got)
	}
	hs := r.Histogram("hammer.hist").Snapshot()
	if hs.Count != goroutines*perG {
		t.Errorf("histogram count = %d, want %d", hs.Count, goroutines*perG)
	}
	var bucketSum int64
	for _, b := range hs.Buckets {
		bucketSum += b.Count
	}
	if bucketSum != hs.Count {
		t.Errorf("bucket sum = %d, want %d", bucketSum, hs.Count)
	}
}

// TestNilSafety: a nil registry and nil handles must be inert, not panic.
func TestNilSafety(t *testing.T) {
	var r *Registry
	c := r.Counter("x")
	g := r.Gauge("x")
	h := r.Histogram("x")
	if c != nil || g != nil || h != nil {
		t.Fatal("nil registry must hand out nil handles")
	}
	c.Inc()
	c.Add(5)
	g.Set(3)
	g.Add(-1)
	h.Observe(42)
	r.SetTool("t")
	r.SetGraphHash(1)
	r.SetSeed(2)
	r.SetSamplesAchieved(3)
	r.SetParam("k", "v")
	if c.Value() != 0 || g.Value() != 0 || h.Snapshot().Count != 0 {
		t.Fatal("nil handles must read as zero")
	}
	rep := r.Report()
	if rep.Schema != ReportSchema {
		t.Fatalf("nil-registry report schema = %q", rep.Schema)
	}
}

func TestCounterMonotone(t *testing.T) {
	var c Counter
	c.Add(5)
	c.Add(-3) // ignored: counters never go down
	c.Add(0)
	if got := c.Value(); got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	var h Histogram
	for _, v := range []int64{0, 1, 2, 3, 4, 7, 8, 1000, -5} {
		h.Observe(v)
	}
	s := h.Snapshot()
	if s.Count != 9 {
		t.Fatalf("count = %d, want 9", s.Count)
	}
	if s.Sum != 1020 {
		t.Fatalf("sum = %d, want 1020", s.Sum)
	}
	// Expected buckets: le=0 {0,-5}, le=1 {1}, le=3 {2,3}, le=7 {4,7},
	// le=15 {8}, le=1023 {1000}.
	want := []Bucket{{0, 2}, {1, 1}, {3, 2}, {7, 2}, {15, 1}, {1023, 1}}
	if len(s.Buckets) != len(want) {
		t.Fatalf("buckets = %+v, want %+v", s.Buckets, want)
	}
	for i, b := range want {
		if s.Buckets[i] != b {
			t.Errorf("bucket[%d] = %+v, want %+v", i, s.Buckets[i], b)
		}
	}
}

func TestReportJSON(t *testing.T) {
	r := New()
	r.SetTool("sphere")
	r.SetGraphHash(0xdeadbeef)
	r.SetSeed(42)
	r.SetSamplesAchieved(100)
	r.SetParam("samples", "100")
	r.Counter("worlds.sampled").Add(100)
	r.Gauge("pool.workers").Set(4)
	r.Histogram("worlds.cascade_size").Observe(7)
	rep := r.Report()
	if len(rep.Spans) != 0 {
		t.Fatalf("registry recorded spans: %+v", rep.Spans)
	}
	// Spans come from the batch CLIs' trace (see cliutil); here they are
	// plain data that must round-trip.
	rep.Spans = []SpanSnapshot{{Name: "index.build", Seconds: 1.5,
		Children: []SpanSnapshot{{Name: "index.save", Seconds: 0.25}}}}

	b, err := rep.JSON()
	if err != nil {
		t.Fatal(err)
	}
	var rt Report
	if err := json.Unmarshal(b, &rt); err != nil {
		t.Fatalf("report does not round-trip: %v", err)
	}
	if rt.Schema != ReportSchema {
		t.Errorf("schema = %q", rt.Schema)
	}
	if rt.RunInfo.Tool != "sphere" || rt.RunInfo.GraphHash != "00000000deadbeef" {
		t.Errorf("run info = %+v", rt.RunInfo)
	}
	if rt.RunInfo.Seed == nil || *rt.RunInfo.Seed != 42 {
		t.Errorf("seed = %v", rt.RunInfo.Seed)
	}
	if rt.RunInfo.SamplesAchieved != 100 || rt.RunInfo.Params["samples"] != "100" {
		t.Errorf("run info = %+v", rt.RunInfo)
	}
	if rt.Counters["worlds.sampled"] != 100 || rt.Gauges["pool.workers"] != 4 {
		t.Errorf("metrics = %+v / %+v", rt.Counters, rt.Gauges)
	}
	if len(rt.Spans) != 1 || rt.Spans[0].Name != "index.build" || rt.Spans[0].Seconds != 1.5 ||
		len(rt.Spans[0].Children) != 1 || rt.Spans[0].Children[0].Name != "index.save" {
		t.Errorf("spans = %+v", rt.Spans)
	}
	if rt.RunInfo.GoVersion == "" || rt.RunInfo.NumCPU <= 0 {
		t.Errorf("process facts missing: %+v", rt.RunInfo)
	}
}

func TestWriteTable(t *testing.T) {
	r := New()
	r.SetTool("sphere")
	r.Counter("a.count").Inc()
	r.Gauge("b.gauge").Set(2)
	r.Histogram("c.hist").Observe(3)
	rep := r.Report()
	rep.Spans = []SpanSnapshot{{Name: "phase", Seconds: 2, Children: []SpanSnapshot{{Name: "subphase", Seconds: 1}}}}
	var sb strings.Builder
	rep.WriteTable(&sb)
	out := sb.String()
	for _, want := range []string{"telemetry report (sphere)", "a.count", "b.gauge", "c.hist", "phase", "    subphase", "counters:", "spans:"} {
		if !strings.Contains(out, want) {
			t.Errorf("table missing %q:\n%s", want, out)
		}
	}
}
