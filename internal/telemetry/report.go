package telemetry

import (
	"encoding/json"
	"fmt"
	"io"
	"runtime"
	"strings"
	"time"
)

// ReportSchema identifies the JSON layout of Report. Bump on incompatible
// change; DESIGN.md §5 documents the schema.
const ReportSchema = "soi.telemetry.report/v1"

// RunInfo makes a report comparable across machines and runs: what ran, on
// which input, with which seed, and what it cost.
type RunInfo struct {
	Tool            string            `json:"tool,omitempty"`
	GraphHash       string            `json:"graph_hash,omitempty"` // hex checkpoint.Hasher fingerprint
	Seed            *uint64           `json:"seed,omitempty"`
	Params          map[string]string `json:"params,omitempty"`
	SamplesAchieved int64             `json:"samples_achieved,omitempty"`
	StartTime       time.Time         `json:"start_time"`
	WallSeconds     float64           `json:"wall_seconds"`
	CPUSeconds      float64           `json:"cpu_seconds"`              // user+system, whole process
	PeakRSSBytes    int64             `json:"peak_rss_bytes,omitempty"` // 0 where getrusage is unavailable
	GoVersion       string            `json:"go_version"`
	GOOS            string            `json:"goos"`
	GOARCH          string            `json:"goarch"`
	NumCPU          int               `json:"num_cpu"`
	GOMAXPROCS      int               `json:"gomaxprocs"`
}

// Report is the end-of-run snapshot: RunInfo plus every metric and, for the
// batch CLIs, the run's phase span tree.
type Report struct {
	Schema     string                       `json:"schema"`
	RunInfo    RunInfo                      `json:"run_info"`
	Counters   map[string]int64             `json:"counters,omitempty"`
	Gauges     map[string]int64             `json:"gauges,omitempty"`
	Histograms map[string]HistogramSnapshot `json:"histograms,omitempty"`
	Spans      []SpanSnapshot               `json:"spans,omitempty"`
}

// SpanSnapshot is one timed phase of a run and its nested sub-phases. The
// registry records no spans itself: Report leaves Spans empty, and the batch
// CLIs fill it from their trace when the run ends.
type SpanSnapshot struct {
	Name     string         `json:"name"`
	Seconds  float64        `json:"seconds"`
	Children []SpanSnapshot `json:"children,omitempty"`
}

// Report snapshots the registry. Safe to call while workers are still
// updating metrics (each value is read atomically). A nil registry reports
// only the schema and process facts.
func (r *Registry) Report() Report {
	rep := Report{
		Schema: ReportSchema,
		RunInfo: RunInfo{
			GoVersion:  runtime.Version(),
			GOOS:       runtime.GOOS,
			GOARCH:     runtime.GOARCH,
			NumCPU:     runtime.NumCPU(),
			GOMAXPROCS: runtime.GOMAXPROCS(0),
		},
	}
	cpu, rss := readRusage()
	rep.RunInfo.CPUSeconds = cpu
	rep.RunInfo.PeakRSSBytes = rss
	if r == nil {
		return rep
	}
	rep.RunInfo.StartTime = r.start
	rep.RunInfo.WallSeconds = time.Since(r.start).Seconds()

	r.mu.Lock()
	defer r.mu.Unlock()
	rep.RunInfo.Tool = r.info.tool
	if r.info.hasHash {
		rep.RunInfo.GraphHash = fmt.Sprintf("%016x", r.info.graphHash)
	}
	if r.info.hasSeed {
		seed := r.info.seed
		rep.RunInfo.Seed = &seed
	}
	rep.RunInfo.SamplesAchieved = r.info.samples
	if len(r.info.params) > 0 {
		rep.RunInfo.Params = make(map[string]string, len(r.info.params))
		for k, v := range r.info.params {
			rep.RunInfo.Params[k] = v
		}
	}
	if len(r.counters) > 0 {
		rep.Counters = make(map[string]int64, len(r.counters))
		for name, c := range r.counters {
			rep.Counters[name] = c.Value()
		}
	}
	if len(r.gauges) > 0 {
		rep.Gauges = make(map[string]int64, len(r.gauges))
		for name, g := range r.gauges {
			rep.Gauges[name] = g.Value()
		}
	}
	if len(r.hists) > 0 {
		rep.Histograms = make(map[string]HistogramSnapshot, len(r.hists))
		for name, h := range r.hists {
			rep.Histograms[name] = h.Snapshot()
		}
	}
	return rep
}

// JSON renders the report as indented JSON with a trailing newline.
func (rep Report) JSON() ([]byte, error) {
	b, err := json.MarshalIndent(rep, "", "  ")
	if err != nil {
		return nil, err
	}
	return append(b, '\n'), nil
}

// WriteTable renders the report as a fixed-width human table, the stderr
// companion to the JSON artifact.
func (rep Report) WriteTable(w io.Writer) {
	fmt.Fprintf(w, "--- telemetry report")
	if rep.RunInfo.Tool != "" {
		fmt.Fprintf(w, " (%s)", rep.RunInfo.Tool)
	}
	fmt.Fprintln(w, " ---")
	fmt.Fprintf(w, "  wall %.3fs  cpu %.3fs", rep.RunInfo.WallSeconds, rep.RunInfo.CPUSeconds)
	if rep.RunInfo.PeakRSSBytes > 0 {
		fmt.Fprintf(w, "  peak-rss %s", formatBytes(rep.RunInfo.PeakRSSBytes))
	}
	if rep.RunInfo.SamplesAchieved > 0 {
		fmt.Fprintf(w, "  samples %d", rep.RunInfo.SamplesAchieved)
	}
	fmt.Fprintln(w)
	if rep.RunInfo.GraphHash != "" {
		fmt.Fprintf(w, "  graph %s", rep.RunInfo.GraphHash)
		if rep.RunInfo.Seed != nil {
			fmt.Fprintf(w, "  seed %d", *rep.RunInfo.Seed)
		}
		fmt.Fprintln(w)
	}
	if len(rep.Spans) > 0 {
		fmt.Fprintln(w, "  spans:")
		for _, s := range rep.Spans {
			writeSpanRow(w, s, 2)
		}
	}
	if len(rep.Counters) > 0 {
		fmt.Fprintln(w, "  counters:")
		for _, name := range sortedNames(rep.Counters) {
			fmt.Fprintf(w, "    %-36s %d\n", name, rep.Counters[name])
		}
	}
	if len(rep.Gauges) > 0 {
		fmt.Fprintln(w, "  gauges:")
		for _, name := range sortedNames(rep.Gauges) {
			fmt.Fprintf(w, "    %-36s %d\n", name, rep.Gauges[name])
		}
	}
	if len(rep.Histograms) > 0 {
		fmt.Fprintln(w, "  histograms:")
		for _, name := range sortedNames(rep.Histograms) {
			h := rep.Histograms[name]
			fmt.Fprintf(w, "    %-36s count=%d sum=%d mean=%.2f", name, h.Count, h.Sum, h.Mean)
			if h.Count > 0 {
				fmt.Fprintf(w, " p50=%.0f p90=%.0f p99=%.0f", h.P50, h.P90, h.P99)
			}
			fmt.Fprintln(w)
		}
	}
}

func writeSpanRow(w io.Writer, s SpanSnapshot, depth int) {
	indent := strings.Repeat("  ", depth)
	fmt.Fprintf(w, "%s%-*s %8.3fs\n", indent, 40-2*depth, s.Name, s.Seconds)
	for _, c := range s.Children {
		writeSpanRow(w, c, depth+1)
	}
}

func formatBytes(n int64) string {
	switch {
	case n >= 1<<30:
		return fmt.Sprintf("%.1fGiB", float64(n)/(1<<30))
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMiB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKiB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}
