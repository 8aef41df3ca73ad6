package cliutil

import (
	"context"
	"encoding/json"
	"net/http"
	"os"
	"path/filepath"
	"testing"
	"time"

	"soi/internal/telemetry"
	"soi/internal/trace"
)

func TestStartTelemetryDisabled(t *testing.T) {
	ctx, rt, err := StartTelemetry(context.Background(), "tool", "", "")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Registry != nil {
		t.Fatal("disabled lifecycle has a registry")
	}
	if trace.FromContext(ctx) != nil {
		t.Fatal("disabled lifecycle put a span in the run's context")
	}
	if telemetry.FromContext(ctx) != nil {
		t.Fatal("disabled lifecycle put a registry in the run's context")
	}
	rt.Flush() // must be a safe no-op
}

func TestFlushWritesReport(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	_, rt, err := StartTelemetry(context.Background(), "tool", "", path)
	if err != nil {
		t.Fatal(err)
	}
	if rt.Registry == nil {
		t.Fatal("stats-json alone should enable telemetry")
	}
	rt.Registry.Counter("x.count").Add(7)
	rt.Flush()
	rt.Flush() // idempotent

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatalf("stats file is not valid JSON: %v", err)
	}
	if rep.Schema != telemetry.ReportSchema {
		t.Fatalf("schema = %q", rep.Schema)
	}
	if rep.RunInfo.Tool != "tool" {
		t.Fatalf("tool = %q", rep.RunInfo.Tool)
	}
	if rep.Counters["x.count"] != 7 {
		t.Fatalf("counter = %d", rep.Counters["x.count"])
	}
}

// TestFlushReportsSpanTree: the report's spans are the root span's subtree,
// nested and in start order, and a phase still open at flush time reports
// the time it has run so far.
func TestFlushReportsSpanTree(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	ctx, rt, err := StartTelemetry(context.Background(), "tool", "", path)
	if err != nil {
		t.Fatal(err)
	}
	pctx, phase := trace.StartChild(ctx, "phase.one")
	sub := trace.Child(pctx, "phase.sub")
	time.Sleep(time.Millisecond)
	sub.End()
	phase.End()
	phase.End() // idempotent
	time.Sleep(time.Millisecond)
	open := trace.Child(ctx, "phase.open") // deliberately left running
	time.Sleep(time.Millisecond)
	rt.Flush()
	open.End()

	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var rep telemetry.Report
	if err := json.Unmarshal(b, &rep); err != nil {
		t.Fatal(err)
	}
	if len(rep.Spans) != 2 {
		t.Fatalf("top-level spans = %+v, want phase.one and phase.open", rep.Spans)
	}
	one, running := rep.Spans[0], rep.Spans[1]
	if one.Name != "phase.one" || one.Seconds <= 0 || len(one.Children) != 1 {
		t.Fatalf("phase span = %+v", one)
	}
	if c := one.Children[0]; c.Name != "phase.sub" || c.Seconds <= 0 || c.Seconds > one.Seconds {
		t.Fatalf("nested span = %+v (parent %.6fs)", c, one.Seconds)
	}
	if running.Name != "phase.open" || running.Seconds <= 0 {
		t.Fatalf("open span = %+v", running)
	}
}

func TestStartTelemetryContextCarriesRegistry(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stats.json")
	ctx, rt, err := StartTelemetry(context.Background(), "tool", "", path)
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Flush()
	if telemetry.FromContext(ctx) != rt.Registry {
		t.Fatal("the run's context does not carry the run registry")
	}
	if trace.FromContext(ctx) == nil {
		t.Fatal("the run's context lost the root span")
	}
}

func TestStartTelemetryDebugServer(t *testing.T) {
	_, rt, err := StartTelemetry(context.Background(), "tool", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	if rt.Registry == nil {
		t.Fatal("debug-addr alone should enable telemetry")
	}
	rt.Flush() // closes the server
}

// TestDebugTracesShowRunningRun: a batch run's -debug-addr lists its root
// span while the run computes, not only once Flush ends it, and serves the
// open trace by id.
func TestDebugTracesShowRunningRun(t *testing.T) {
	ctx, rt, err := StartTelemetry(context.Background(), "tool", "127.0.0.1:0", "")
	if err != nil {
		t.Fatal(err)
	}
	defer rt.Flush()
	_, phase := trace.StartChild(ctx, "phase")
	defer phase.End()

	get := func(path string, v any) {
		t.Helper()
		resp, err := http.Get("http://" + rt.DebugAddr + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(v); err != nil {
			t.Fatal(err)
		}
	}
	var list struct {
		Traces []struct {
			TraceID  string `json:"trace_id"`
			Retained string `json:"retained"`
			Root     string `json:"root"`
		} `json:"traces"`
	}
	get("/debug/traces", &list)
	if len(list.Traces) != 1 || list.Traces[0].Root != "tool" || list.Traces[0].Retained != "running" {
		t.Fatalf("/debug/traces mid-run = %+v, want the running root span \"tool\"", list.Traces)
	}
	var tj trace.TraceJSON
	get("/debug/traces/"+list.Traces[0].TraceID, &tj)
	if tj.Retained != "running" || len(tj.Spans) != 1 || len(tj.Spans[0].Children) != 1 ||
		tj.Spans[0].Children[0].Name != "phase" || !tj.Spans[0].Running {
		t.Fatalf("running trace = %+v, want the open root with its phase", tj)
	}
}
