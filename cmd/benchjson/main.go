// Command benchjson converts `go test -bench` text output (read from stdin)
// into a stable, machine-readable JSON document, so benchmark baselines can
// be committed and diffed across pull requests.
//
//	go test -run='^$' -bench=. -count=10 . | benchjson -out BENCH.json
//	benchjson -compare OLD.json NEW.json
//
// Every benchmark is keyed by its name (the Benchmark prefix and the
// -GOMAXPROCS suffix stripped, sub-benchmark paths kept). The result lines
// of one name (one per -count repeat) are folded into one entry: the median
// of each unit over the repeats — ns/op, iteration count, the standard
// -benchmem metrics when present, and every custom b.ReportMetric value
// under its own unit — plus every repeat's ns/op and their quartiles.
// Environment header lines (goos/goarch/pkg/cpu) are carried into an env
// block.
//
// -compare prints, for every name the two documents share, the old and new
// median ns/op and where the new median lies against the old repeats'
// interquartile range: within, below (faster) or above (slower). A name in
// one document only is listed, not failed. It fails only on input it cannot
// read, never on a timing.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"slices"
	"strconv"
	"strings"
	"text/tabwriter"

	"soi/internal/atomicfile"
	"soi/internal/cliutil"
)

// Schema identifies the output format.
const Schema = "soi.bench/v1"

// Result is one benchmark's measurements: each value is the median over the
// benchmark's repeats (-count), the only value for a single run.
type Result struct {
	// Iterations is b.N of the final timed run.
	Iterations int64 `json:"iterations"`
	// NsPerOp is the wall time per operation in nanoseconds.
	NsPerOp float64 `json:"ns_per_op"`
	// NsPerOpRuns holds every repeat's ns/op in input order, and
	// NsPerOpQ1/NsPerOpQ3 their quartiles; a record made before repeats
	// were kept has neither, and reads as one run.
	NsPerOpRuns []float64 `json:"ns_per_op_runs,omitempty"`
	NsPerOpQ1   float64   `json:"ns_per_op_q1,omitempty"`
	NsPerOpQ3   float64   `json:"ns_per_op_q3,omitempty"`
	// BytesPerOp / AllocsPerOp appear with -benchmem.
	BytesPerOp  *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp *float64 `json:"allocs_per_op,omitempty"`
	// Metrics holds every other unit on the line, including custom
	// b.ReportMetric units (e.g. "edges", "heldout-cost").
	Metrics map[string]float64 `json:"metrics,omitempty"`
}

// Document is the full output file.
type Document struct {
	Schema     string            `json:"schema"`
	Env        map[string]string `json:"env,omitempty"`
	Benchmarks map[string]Result `json:"benchmarks"`
}

func main() {
	outPath := flag.String("out", "", "write the JSON document here (default: stdout)")
	compare := flag.Bool("compare", false, "compare two documents: benchjson -compare OLD.json NEW.json")
	flag.Parse()
	if *compare {
		if flag.NArg() != 2 {
			cliutil.Fail("benchjson", fmt.Errorf("-compare takes two files, OLD and NEW; got %d arguments", flag.NArg()))
		}
		if err := compareFiles(os.Stdout, flag.Arg(0), flag.Arg(1)); err != nil {
			cliutil.Fail("benchjson", err)
		}
		return
	}
	doc, err := parse(os.Stdin)
	if err != nil {
		cliutil.Fail("benchjson", err)
	}
	if *outPath == "" {
		if err := write(os.Stdout, doc); err != nil {
			cliutil.Fail("benchjson", err)
		}
		return
	}
	err = atomicfile.WriteFile(*outPath, func(w io.Writer) error { return write(w, doc) })
	if err != nil {
		cliutil.Fail("benchjson", err)
	}
	fmt.Fprintf(os.Stderr, "benchjson: %d benchmarks -> %s\n", len(doc.Benchmarks), *outPath)
}

func write(w io.Writer, doc *Document) error {
	b, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", b)
	return err
}

// gomaxprocsSuffix matches the trailing -N the bench runner appends.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parse reads `go test -bench` output. Unrecognized lines (PASS, ok, test
// logs) are ignored, so raw `go test` output pipes through unmodified.
func parse(r io.Reader) (*Document, error) {
	doc := &Document{Schema: Schema, Benchmarks: map[string]Result{}}
	runs := map[string][]Result{}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		for _, env := range []string{"goos", "goarch", "pkg", "cpu"} {
			if v, ok := strings.CutPrefix(line, env+": "); ok {
				if doc.Env == nil {
					doc.Env = map[string]string{}
				}
				doc.Env[env] = strings.TrimSpace(v)
			}
		}
		if !strings.HasPrefix(line, "Benchmark") {
			continue
		}
		fields := strings.Fields(line)
		// A result line is "BenchmarkName-N  iters  value unit  [value unit]..."
		// with at least one value/unit pair; a bare "BenchmarkName" progress
		// line has no fields to parse.
		if len(fields) < 4 || (len(fields)%2) != 0 {
			continue
		}
		iters, err := strconv.ParseInt(fields[1], 10, 64)
		if err != nil {
			continue
		}
		name := strings.TrimPrefix(fields[0], "Benchmark")
		name = gomaxprocsSuffix.ReplaceAllString(name, "")
		res := Result{Iterations: iters}
		for i := 2; i+1 < len(fields); i += 2 {
			val, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return nil, fmt.Errorf("benchmark %s: bad value %q", name, fields[i])
			}
			switch unit := fields[i+1]; unit {
			case "ns/op":
				res.NsPerOp = val
			case "B/op":
				v := val
				res.BytesPerOp = &v
			case "allocs/op":
				v := val
				res.AllocsPerOp = &v
			default:
				if res.Metrics == nil {
					res.Metrics = map[string]float64{}
				}
				res.Metrics[unit] = val
			}
		}
		runs[name] = append(runs[name], res)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}
	for name, rs := range runs {
		doc.Benchmarks[name] = fold(rs)
	}
	if len(doc.Benchmarks) == 0 {
		return nil, fmt.Errorf("no benchmark result lines found on stdin")
	}
	return doc, nil
}

// fold combines one benchmark's repeats into a Result of medians, keeping
// every repeat's ns/op and their quartiles.
func fold(rs []Result) Result {
	med := func(get func(Result) (float64, bool)) (float64, bool) {
		var xs []float64
		for _, r := range rs {
			if v, ok := get(r); ok {
				xs = append(xs, v)
			}
		}
		if len(xs) == 0 {
			return 0, false
		}
		return quantile(xs, 0.5), true
	}
	iters, _ := med(func(r Result) (float64, bool) { return float64(r.Iterations), true })
	out := Result{Iterations: int64(iters)}
	for _, r := range rs {
		out.NsPerOpRuns = append(out.NsPerOpRuns, r.NsPerOp)
	}
	out.NsPerOp = quantile(out.NsPerOpRuns, 0.5)
	out.NsPerOpQ1, out.NsPerOpQ3 = quantile(out.NsPerOpRuns, 0.25), quantile(out.NsPerOpRuns, 0.75)
	if v, ok := med(func(r Result) (float64, bool) { return deref(r.BytesPerOp) }); ok {
		out.BytesPerOp = &v
	}
	if v, ok := med(func(r Result) (float64, bool) { return deref(r.AllocsPerOp) }); ok {
		out.AllocsPerOp = &v
	}
	for _, r := range rs {
		for unit := range r.Metrics {
			if _, done := out.Metrics[unit]; done {
				continue
			}
			if out.Metrics == nil {
				out.Metrics = map[string]float64{}
			}
			out.Metrics[unit], _ = med(func(r Result) (float64, bool) {
				v, ok := r.Metrics[unit]
				return v, ok
			})
		}
	}
	return out
}

func deref(p *float64) (float64, bool) {
	if p == nil {
		return 0, false
	}
	return *p, true
}

// quantile returns the q-quantile of xs by linear interpolation between
// the closest ranks (xs is not modified).
func quantile(xs []float64, q float64) float64 {
	s := slices.Clone(xs)
	slices.Sort(s)
	h := q * float64(len(s)-1)
	lo := int(h)
	if lo+1 >= len(s) {
		return s[lo]
	}
	return s[lo] + (h-float64(lo))*(s[lo+1]-s[lo])
}

// quartiles returns a result's ns/op interquartile range; a result with no
// kept repeats has the median as both ends.
func (r Result) quartiles() (q1, q3 float64) {
	if len(r.NsPerOpRuns) == 0 {
		return r.NsPerOp, r.NsPerOp
	}
	return r.NsPerOpQ1, r.NsPerOpQ3
}

// readDoc loads a benchjson document and checks its schema.
func readDoc(path string) (*Document, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var doc Document
	if err := json.Unmarshal(b, &doc); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	if doc.Schema != Schema {
		return nil, fmt.Errorf("%s: schema %q, want %q", path, doc.Schema, Schema)
	}
	return &doc, nil
}

// compareFiles writes the comparison of two documents to w (see the
// package doc).
func compareFiles(w io.Writer, oldPath, newPath string) error {
	oldDoc, err := readDoc(oldPath)
	if err != nil {
		return err
	}
	newDoc, err := readDoc(newPath)
	if err != nil {
		return err
	}
	return compare(w, oldDoc, newDoc)
}

func compare(w io.Writer, oldDoc, newDoc *Document) error {
	var names, onlyOld, onlyNew []string
	for name := range oldDoc.Benchmarks {
		if _, ok := newDoc.Benchmarks[name]; ok {
			names = append(names, name)
		} else {
			onlyOld = append(onlyOld, name)
		}
	}
	for name := range newDoc.Benchmarks {
		if _, ok := oldDoc.Benchmarks[name]; !ok {
			onlyNew = append(onlyNew, name)
		}
	}
	slices.Sort(names)
	slices.Sort(onlyOld)
	slices.Sort(onlyNew)
	tw := tabwriter.NewWriter(w, 0, 4, 2, ' ', 0)
	fmt.Fprintln(tw, "benchmark\told ns/op\told IQR\truns\tnew ns/op\truns\tnew vs old IQR")
	for _, name := range names {
		o, n := oldDoc.Benchmarks[name], newDoc.Benchmarks[name]
		q1, q3 := o.quartiles()
		verdict := "within"
		switch {
		case n.NsPerOp < q1:
			verdict = "below"
		case n.NsPerOp > q3:
			verdict = "above"
		}
		fmt.Fprintf(tw, "%s\t%.0f\t[%.0f, %.0f]\t%d\t%.0f\t%d\t%s\n",
			name, o.NsPerOp, q1, q3, max(1, len(o.NsPerOpRuns)), n.NsPerOp, max(1, len(n.NsPerOpRuns)), verdict)
	}
	for _, name := range onlyOld {
		fmt.Fprintf(tw, "%s\tonly in old\n", name)
	}
	for _, name := range onlyNew {
		fmt.Fprintf(tw, "%s\tonly in new\n", name)
	}
	return tw.Flush()
}
