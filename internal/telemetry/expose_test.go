package telemetry

import (
	"strings"
	"testing"
)

// TestPrometheusGolden pins the exact text exposition output for a known
// registry. The format is consumed by real scrapers, so any drift here is a
// breaking change and must be deliberate.
func TestPrometheusGolden(t *testing.T) {
	r := New()
	r.Counter("pool.tasks_done").Add(42)
	r.Counter("worlds.sampled").Add(7)
	r.Gauge("pool.workers").Set(4)
	h := r.Histogram("worlds.cascade_size")
	for _, v := range []int64{1, 2, 3, 8, 1000} {
		h.Observe(v)
	}

	var sb strings.Builder
	r.WritePrometheus(&sb)
	golden := `# TYPE soi_pool_tasks_done_total counter
soi_pool_tasks_done_total 42
# TYPE soi_worlds_sampled_total counter
soi_worlds_sampled_total 7
# TYPE soi_pool_workers gauge
soi_pool_workers 4
# TYPE soi_worlds_cascade_size histogram
soi_worlds_cascade_size_bucket{le="1"} 1
soi_worlds_cascade_size_bucket{le="3"} 3
soi_worlds_cascade_size_bucket{le="15"} 4
soi_worlds_cascade_size_bucket{le="1023"} 5
soi_worlds_cascade_size_bucket{le="+Inf"} 5
soi_worlds_cascade_size_sum 1014
soi_worlds_cascade_size_count 5
`
	if got := sb.String(); got != golden {
		t.Errorf("prometheus text drifted.\n--- got ---\n%s--- want ---\n%s", got, golden)
	}
}

func TestPrometheusNilRegistry(t *testing.T) {
	var r *Registry
	var sb strings.Builder
	r.WritePrometheus(&sb)
	if sb.Len() != 0 {
		t.Errorf("nil registry rendered %q", sb.String())
	}
}

func TestPromName(t *testing.T) {
	for in, want := range map[string]string{
		"pool.tasks_done": "soi_pool_tasks_done",
		"a-b c.d":         "soi_a_b_c_d",
	} {
		if got := promName(in); got != want {
			t.Errorf("promName(%q) = %q, want %q", in, got, want)
		}
	}
}
