package main

import (
	"bytes"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

const sample = `goos: linux
goarch: amd64
pkg: soi
cpu: Example CPU @ 2.50GHz
BenchmarkTable1DatasetStats-8   	      10	 105032450 ns/op	       120 edges
BenchmarkAblationCELF/celf-8    	       5	  20150030 ns/op	      1234 gain-evals	   512 B/op	       3 allocs/op
BenchmarkSampleCascade
BenchmarkSampleCascade-8        	 1000000	      1042 ns/op
PASS
ok  	soi	12.345s
`

func TestParse(t *testing.T) {
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	if doc.Schema != Schema {
		t.Fatalf("schema = %q", doc.Schema)
	}
	if doc.Env["goos"] != "linux" || doc.Env["cpu"] != "Example CPU @ 2.50GHz" {
		t.Fatalf("env = %v", doc.Env)
	}
	if len(doc.Benchmarks) != 3 {
		t.Fatalf("parsed %d benchmarks, want 3: %v", len(doc.Benchmarks), doc.Benchmarks)
	}

	r, ok := doc.Benchmarks["Table1DatasetStats"]
	if !ok {
		t.Fatal("Table1DatasetStats missing (name not normalized?)")
	}
	if r.Iterations != 10 || r.NsPerOp != 105032450 || r.Metrics["edges"] != 120 {
		t.Fatalf("unexpected result: %+v", r)
	}

	r, ok = doc.Benchmarks["AblationCELF/celf"]
	if !ok {
		t.Fatal("sub-benchmark path missing")
	}
	if r.Metrics["gain-evals"] != 1234 || r.BytesPerOp == nil || *r.BytesPerOp != 512 || *r.AllocsPerOp != 3 {
		t.Fatalf("unexpected result: %+v", r)
	}

	if doc.Benchmarks["SampleCascade"].NsPerOp != 1042 {
		t.Fatalf("SampleCascade = %+v", doc.Benchmarks["SampleCascade"])
	}
}

func TestParseEmpty(t *testing.T) {
	if _, err := parse(strings.NewReader("PASS\nok soi 1s\n")); err == nil {
		t.Fatal("accepted output with no benchmarks")
	}
}

// TestParseRepeats: -count repeats of one name fold into one entry holding
// every repeat's ns/op, their median and quartiles, and the median of
// every other unit.
func TestParseRepeats(t *testing.T) {
	var in strings.Builder
	for i, ns := range []int{50, 10, 40, 20, 30} {
		fmt.Fprintf(&in, "BenchmarkKernel/spread-2  %d  %d ns/op  %d B/op  0 allocs/op  6000 resident-bytes\n", 100+i, ns, ns/10)
	}
	in.WriteString("BenchmarkOnce-2  7  99 ns/op\n")
	doc, err := parse(strings.NewReader(in.String()))
	if err != nil {
		t.Fatal(err)
	}
	r := doc.Benchmarks["Kernel/spread"]
	if !slices.Equal(r.NsPerOpRuns, []float64{50, 10, 40, 20, 30}) {
		t.Fatalf("runs = %v, want every repeat in input order", r.NsPerOpRuns)
	}
	if r.NsPerOp != 30 || r.NsPerOpQ1 != 20 || r.NsPerOpQ3 != 40 || r.Iterations != 102 {
		t.Fatalf("median/quartiles/iterations = %v [%v, %v] %d, want 30 [20, 40] 102", r.NsPerOp, r.NsPerOpQ1, r.NsPerOpQ3, r.Iterations)
	}
	if *r.BytesPerOp != 3 || *r.AllocsPerOp != 0 || r.Metrics["resident-bytes"] != 6000 {
		t.Fatalf("other units = %v B/op, %v allocs/op, %v", *r.BytesPerOp, *r.AllocsPerOp, r.Metrics)
	}
	if once := doc.Benchmarks["Once"]; once.NsPerOp != 99 || once.NsPerOpQ1 != 99 || once.NsPerOpQ3 != 99 {
		t.Fatalf("single run = %+v", once)
	}
}

// TestCompare: each shared name's new median is placed against the old
// IQR — a record without kept repeats (an older file) has an IQR of its
// one value — and names on one side only are listed, not failed.
func TestCompare(t *testing.T) {
	oldDoc := &Document{Schema: Schema, Benchmarks: map[string]Result{
		"A":       {NsPerOp: 100, NsPerOpRuns: []float64{90, 100, 110}, NsPerOpQ1: 95, NsPerOpQ3: 105},
		"B":       {NsPerOp: 100, NsPerOpRuns: []float64{90, 100, 110}, NsPerOpQ1: 95, NsPerOpQ3: 105},
		"C":       {NsPerOp: 100, NsPerOpRuns: []float64{90, 100, 110}, NsPerOpQ1: 95, NsPerOpQ3: 105},
		"Old":     {NsPerOp: 100},
		"Retired": {NsPerOp: 1},
	}}
	newDoc := &Document{Schema: Schema, Benchmarks: map[string]Result{
		"A": {NsPerOp: 104}, "B": {NsPerOp: 80}, "C": {NsPerOp: 120}, "Old": {NsPerOp: 100}, "Added": {NsPerOp: 1},
	}}
	var out bytes.Buffer
	if err := compare(&out, oldDoc, newDoc); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		`(?m)^A\s+100\s+\[95, 105\]\s+3\s+104\s+1\s+within$`,
		`(?m)^B\s.*\s80\s+1\s+below$`,
		`(?m)^C\s.*\s120\s+1\s+above$`,
		`(?m)^Old\s+100\s+\[100, 100\]\s+1\s+100\s+1\s+within$`,
		`(?m)^Retired\s+only in old$`,
		`(?m)^Added\s+only in new$`,
	} {
		if !regexp.MustCompile(want).MatchString(out.String()) {
			t.Errorf("output lacks %s:\n%s", want, out.String())
		}
	}
}

// TestCompareMalformed: a missing file, a file that is not JSON and a
// document of another schema are errors.
func TestCompareMalformed(t *testing.T) {
	dir := t.TempDir()
	good := filepath.Join(dir, "good.json")
	doc, err := parse(strings.NewReader(sample))
	if err != nil {
		t.Fatal(err)
	}
	var b bytes.Buffer
	if err := write(&b, doc); err != nil {
		t.Fatal(err)
	}
	files := map[string]string{"good.json": b.String(), "junk.json": "BenchmarkX 1 2 ns/op", "other.json": `{"schema":"other/v9","benchmarks":{}}`}
	for name, body := range files {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := compareFiles(io.Discard, good, good); err != nil {
		t.Fatalf("a record against itself: %v", err)
	}
	for _, bad := range []string{"missing.json", "junk.json", "other.json"} {
		if err := compareFiles(io.Discard, good, filepath.Join(dir, bad)); err == nil {
			t.Errorf("compare against %s: no error", bad)
		}
	}
}
