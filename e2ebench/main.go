// Command e2ebench is the end-to-end benchmark of the soi serving stack.
//
// Each run launches fresh daemons (two soid shards behind one soigw),
// drives them with a seeded open-loop request schedule, measures latency
// from each request's scheduled send time, and checks every answer against
// an in-process reference built from the same shard artifacts. The traced
// run also times one pass of the offline build pipeline (sphere -shards 2
// plus the per-shard sketches) and verifies what it wrote.
//
// Run it from the root of a soi checkout through run.sh, which builds the
// binaries from that checkout first:
//
//	bash e2ebench/run.sh --workload cold-dense --seed 1 --seconds 10 --trace 0
//
// The last line of standard output is one JSON object:
// {"correct":...,"attempted":...,"failed":...,"metrics":{...}}. With
// --trace 0 it holds the end-to-end metrics, with --trace 1 the per-layer
// metrics (see README.md for what each one means). A run whose answers fail
// a check still prints that line, with "correct":false, and exits 1.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"time"
)

// metricDef names one reported metric and its unit. BENCHMARK.json lists the
// same names; bench_test.go keeps the two in step.
type metricDef struct{ Name, Unit string }

// endToEnd is what a user of the system sees, printed with --trace 0. Every
// workload prints every one of them.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"p50_ms", "ms"},
	{"cpu_ms_per_req", "ms"},
	{"serve_rss_mb", "MB"},
	{"ok_ratio", "ratio"},
	{"artifact_mb", "MB"},
}

// perLayer attributes time and counts to the repo's modules, printed with
// --trace 1. A layer a workload does not exercise reports 0.
var perLayer = []metricDef{
	{"router.legs_per_req", "count"},
	{"router.leg_p50_ms", "ms"},
	{"router.self_ms", "ms"},
	{"router.retries_per_1k", "count"},
	{"router.hedges_per_1k", "count"},
	{"router.degraded_ratio", "ratio"},
	{"server.cache_hit_ratio", "ratio"},
	{"server.singleflight_shared", "count"},
	{"server.admission_wait_ms", "ms"},
	{"server.handler_p50_ms.sphere", "ms"},
	{"server.handler_p50_ms.spread", "ms"},
	{"server.handler_p50_ms.seeds", "ms"},
	{"server.handler_ms_per_req", "ms"},
	{"server.compute_share", "ratio"},
	{"server.resp_bytes_per_req", "bytes"},
	{"net.leg_overhead_ms", "ms"},
	{"core.sphere_compute_ms", "ms"},
	{"cascade.spread_index_ms", "ms"},
	{"sketch.estimate_spread_us", "us"},
	{"sketch.estimate_sphere_us", "us"},
	{"infmax.select_seeds_ms", "ms"},
	{"answer.bound_rel_p50", "ratio"},
	{"graph.load_s", "s"},
	{"index.load_s", "s"},
	{"core.spheres_load_s", "s"},
	{"sketch.load_s", "s"},
	{"index.memory_mb", "MB"},
	{"build.pass_s", "s"},
	{"build.rss_mb", "MB"},
	{"worlds.sample_s", "s"},
	{"index.build_s", "s"},
	{"core.compute_all_s", "s"},
	{"sketch.build_s", "s"},
	{"index.save_s", "s"},
	{"sketch.save_s", "s"},
	{"index_mb", "MB"},
	{"spheres_mb", "MB"},
	{"sketch_mb", "MB"},
	{"scc.components_per_world", "count"},
	{"trace.overhead_ms", "ms"},
	{"loadgen.p90_ms", "ms"},
	{"loadgen.max_late_ms", "ms"},
	{"loadgen.sent", "count"},
	{"loadgen.degraded", "count"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// outcome is what a workload run hands back to main: the request counts, the
// measured values by metric name, and any correctness failures.
type outcome struct {
	attempted, failed int
	values            map[string]float64
	problems          []string
	graphFP           uint64  // fingerprint of the benchmark graph, for the record
	stealPct          float64 // share of the CPU time asked for that the host stole while measuring
}

func (o *outcome) problem(format string, args ...any) {
	o.problems = append(o.problems, fmt.Sprintf(format, args...))
}

// options are the command-line settings every workload receives.
type options struct {
	workload string
	seed     uint64
	seconds  int
	trace    bool
	bin      string // directory holding soid, soigw and sphere
	work     string // scratch directory for artifacts and daemon logs
}

func main() {
	os.Exit(run())
}

var started = time.Now()

// logf writes a progress line to stderr, stamped with the time since start.
func logf(format string, args ...any) {
	fmt.Fprintf(os.Stderr, "e2ebench: %6.2fs %s\n", time.Since(started).Seconds(), fmt.Sprintf(format, args...))
}

func run() int {
	var opts options
	var traceFlag int
	flag.StringVar(&opts.workload, "workload", "", "workload name: "+fmt.Sprint(workloadNames()))
	flag.Uint64Var(&opts.seed, "seed", 1, "workload seed: the same seed sends the same requests")
	flag.IntVar(&opts.seconds, "seconds", 10, "length of the measured phase in seconds")
	flag.IntVar(&traceFlag, "trace", 0, "0 prints end-to-end metrics; 1 runs the traced attribution and prints per-layer metrics")
	flag.StringVar(&opts.bin, "bin", ".bench_build/bin", "directory with the soid, soigw and sphere binaries")
	flag.StringVar(&opts.work, "work", ".bench_build", "directory for artifacts, logs and scratch files")
	flag.Parse()
	opts.trace = traceFlag != 0
	if opts.seconds < 1 {
		fmt.Fprintln(os.Stderr, "e2ebench: --seconds must be at least 1")
		return 2
	}

	// Run hygiene: the generator pins the same scheduler and GC settings it
	// gives the daemons (see childEnv).
	runtime.GOMAXPROCS(nproc())
	debug.SetGCPercent(gcPercent)

	w, ok := workloads[opts.workload]
	if !ok {
		fmt.Fprintf(os.Stderr, "e2ebench: unknown workload %q (have %v)\n", opts.workload, workloadNames())
		return 2
	}
	o, err := runServing(opts, w)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: %v\n", opts.workload, err)
		return 1
	}
	for _, p := range o.problems {
		fmt.Fprintf(os.Stderr, "e2ebench: %s: FAIL: %s\n", opts.workload, p)
	}

	res, err := resultFor(o, opts.trace)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: internal: %v\n", err)
		return 1
	}
	printSummary(opts, o)
	line, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(os.Stderr, "e2ebench: %v\n", err)
		return 1
	}
	fmt.Println(string(line))
	if !res.Correct {
		return 1
	}
	return 0
}

// resultFor assembles the result line: every end-to-end metric, or with
// traced every per-layer metric (0 for a layer the workload leaves idle).
func resultFor(o *outcome, traced bool) (result, error) {
	defs := endToEnd
	if traced {
		defs = perLayer
	}
	res := result{
		Correct:   len(o.problems) == 0,
		Attempted: o.attempted,
		Failed:    o.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := o.values[d.Name]
		if !ok && !traced {
			return res, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	return res, nil
}

// printSummary writes the run's environment record and every measured value
// to stdout ahead of the result line, for a human reading the log.
func printSummary(opts options, o *outcome) {
	env, _ := json.Marshal(map[string]any{
		"workload":          opts.workload,
		"seed":              opts.seed,
		"seconds":           opts.seconds,
		"trace":             opts.trace,
		"nproc":             nproc(),
		"go":                runtime.Version(),
		"gogc":              gcPercent,
		"graph_fingerprint": fmt.Sprintf("%016x", o.graphFP),
		"steal_pct":         o.stealPct,
	})
	fmt.Println("env", string(env))
	names := make([]string, 0, len(o.values))
	for n := range o.values {
		names = append(names, n)
	}
	sort.Strings(names)
	for _, n := range names {
		fmt.Printf("  %-30s %.6g\n", n, o.values[n])
	}
}
