package telemetry

import (
	"fmt"
	"io"
	"net/http"
	"strings"
)

// promName maps a dotted metric name to a Prometheus-safe identifier:
// "pool.tasks_done" → "soi_pool_tasks_done". Counters additionally get the
// conventional _total suffix from WritePrometheus.
func promName(name string) string {
	var b strings.Builder
	b.WriteString("soi_")
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// WritePrometheus renders the registry in the Prometheus text exposition
// format (version 0.0.4). Output is deterministic: metric families are
// sorted by name, histogram buckets are cumulative and ascending. A nil
// registry renders nothing.
func (r *Registry) WritePrometheus(w io.Writer) {
	if r == nil {
		return
	}
	r.mu.Lock()
	counters := make(map[string]int64, len(r.counters))
	for name, c := range r.counters {
		counters[name] = c.Value()
	}
	gauges := make(map[string]int64, len(r.gauges))
	for name, g := range r.gauges {
		gauges[name] = g.Value()
	}
	hists := make(map[string]HistogramSnapshot, len(r.hists))
	for name, h := range r.hists {
		hists[name] = h.Snapshot()
	}
	r.mu.Unlock()

	for _, name := range sortedNames(counters) {
		pn := promName(name) + "_total"
		fmt.Fprintf(w, "# TYPE %s counter\n%s %d\n", pn, pn, counters[name])
	}
	for _, name := range sortedNames(gauges) {
		pn := promName(name)
		fmt.Fprintf(w, "# TYPE %s gauge\n%s %d\n", pn, pn, gauges[name])
	}
	for _, name := range sortedNames(hists) {
		pn := promName(name)
		h := hists[name]
		fmt.Fprintf(w, "# TYPE %s histogram\n", pn)
		cum := int64(0)
		for _, b := range h.Buckets {
			cum += b.Count
			fmt.Fprintf(w, "%s_bucket{le=\"%d\"} %d\n", pn, b.Le, cum)
		}
		fmt.Fprintf(w, "%s_bucket{le=\"+Inf\"} %d\n", pn, h.Count)
		fmt.Fprintf(w, "%s_sum %d\n", pn, h.Sum)
		fmt.Fprintf(w, "%s_count %d\n", pn, h.Count)
	}
}

// Handler returns an http.Handler serving WritePrometheus output.
func (r *Registry) Handler() http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		r.WritePrometheus(w)
	})
}
