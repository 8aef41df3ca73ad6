package cliutil

import (
	"context"
	"fmt"
	"net/http"
	"os"
	"sync"
	"time"

	"soi/internal/daemon"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// RunTelemetry is a command's telemetry lifecycle: an optional metrics
// registry and root trace span (both nil when neither -debug-addr nor
// -stats-json was given — all instrumentation downstream then no-ops), an
// optional debug HTTP server, and an exactly-once final report flush that
// runs on every exit path, including Fail's os.Exit shortcuts.
type RunTelemetry struct {
	// Tool is the command name, used in stderr notices.
	Tool string
	// Registry is the run's metrics registry, also carried by the context
	// StartTelemetry returns; nil when telemetry is disabled.
	Registry *telemetry.Registry
	// DebugAddr is the debug listener's resolved address; empty without
	// -debug-addr.
	DebugAddr string

	statsPath string
	root      *trace.Span // the run's phases are its children
	debug     *daemon.Gate
	flushOnce sync.Once
}

// StartTelemetry builds the telemetry lifecycle from the -debug-addr and
// -stats-json flags and returns ctx carrying the run's registry and root
// trace span: the compute phases meter into the one and open their spans
// under the other. With both flags empty it returns ctx unchanged and a
// disabled lifecycle whose Registry is nil, so the per-event overhead
// everywhere downstream is a single nil check. The debug listener
// (the daemons' debug surface: /metrics, /debug/traces, pprof)
// starts immediately; its resolved address is announced on stderr.
func StartTelemetry(ctx context.Context, tool, debugAddr, statsPath string) (context.Context, *RunTelemetry, error) {
	t := &RunTelemetry{Tool: tool, statsPath: statsPath}
	if debugAddr == "" && statsPath == "" {
		return ctx, t, nil
	}
	t.Registry = telemetry.New()
	t.Registry.SetTool(tool)
	// Flush reads the trace from its root, never from the tracer's ring of
	// retained traces, so one ring slot is enough.
	tracer := trace.New(trace.Options{Service: tool, RingSize: 1})
	if debugAddr != "" {
		mux := http.NewServeMux()
		daemon.Debug(mux, t.Registry, tracer)
		t.debug = daemon.NewGate()
		t.debug.Ready(mux)
		addr, err := t.debug.Start(debugAddr)
		if err != nil {
			return ctx, nil, fmt.Errorf("%s: debug server: %w", tool, err)
		}
		t.DebugAddr = addr
		fmt.Fprintf(os.Stderr, "%s: debug server on http://%s (/metrics, /debug/traces, /debug/pprof/)\n", tool, addr)
	}
	ctx, t.root = tracer.StartSpan(telemetry.NewContext(ctx, t.Registry), tool)
	return ctx, t, nil
}

// Flush writes the final report exactly once: it ends the root span, takes
// the report's span tree from the root's children, writes the JSON report
// to the -stats-json path (atomically) and the human-readable table to
// stderr, and shuts down the debug server. Safe to call multiple times and
// on a disabled (Registry == nil) lifecycle. Flush failures are reported on
// stderr but never change the command's exit code — telemetry must not turn
// a successful run into a failed one.
func (t *RunTelemetry) Flush() {
	t.flushOnce.Do(func() {
		if t.Registry == nil {
			return
		}
		rep := t.Registry.Report()
		t.root.End()
		rep.Spans = spanSnapshots(t.root.Trace().Snapshot(t.Tool).Spans[0].Children)
		daemon.WriteReport(t.Tool, t.statsPath, rep)
		rep.WriteTable(os.Stderr)
		if t.debug != nil {
			// Give an in-flight scrape a moment to finish, then let go.
			ctx, cancel := context.WithTimeout(context.Background(), time.Second)
			defer cancel()
			if err := t.debug.Shutdown(ctx); err != nil {
				fmt.Fprintf(os.Stderr, "%s: closing debug server: %v\n", t.Tool, err)
			}
		}
	})
}

// spanSnapshots converts a trace subtree into the report's span tree.
func spanSnapshots(spans []trace.SpanJSON) []telemetry.SpanSnapshot {
	if len(spans) == 0 {
		return nil
	}
	out := make([]telemetry.SpanSnapshot, len(spans))
	for i, s := range spans {
		out[i] = telemetry.SpanSnapshot{
			Name:     s.Name,
			Seconds:  s.DurationMS / 1e3,
			Children: spanSnapshots(s.Children),
		}
	}
	return out
}

// Finish flushes telemetry and then exits through Fail. Use it instead of
// Fail on every error path once telemetry has started, so interrupted
// (exit 130) and failed runs still leave a report behind.
func (t *RunTelemetry) Finish(err error) {
	t.Flush()
	Fail(t.Tool, err)
}
