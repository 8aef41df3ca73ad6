// Package daemon is the serving skeleton shared by soid, soigw and the
// batch CLIs' -debug-addr listener: the one listener (a Gate that binds
// before anything loads), the one debug surface, the one /v1 request
// pipeline (Envelope, with its response Cache), and the bind → load →
// serve → drain → report lifecycle with the flags both daemons take. It
// knows nothing about what a daemon computes; the estimators stay behind
// internal/server and the scatter-gather behind internal/router.
package daemon

import (
	"context"
	"flag"
	"fmt"
	"io"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"sync/atomic"
	"syscall"
	"time"

	"soi/internal/api"
	"soi/internal/atomicfile"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Healthz is the liveness answer: the process is up and able to answer. It
// stays 200 while a daemon drains — a draining daemon is alive, and
// restarting it would abort the drain. Readiness (should this replica get
// traffic?) is each daemon's own /readyz.
func Healthz(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	fmt.Fprintln(w, "ok")
}

// Debug mounts the debug surface every soi listener serves:
//
//	/metrics             Prometheus text exposition of tel
//	/debug/traces[/{id}] retained traces; 404 "tracing disabled" when tr is nil
//	/debug/pprof/...     the net/http/pprof suite
//
// A nil registry serves an empty (valid) /metrics page.
func Debug(mux *http.ServeMux, tel *telemetry.Registry, tr *trace.Tracer) {
	mux.Handle("GET /metrics", tel.Handler())
	mux.Handle("GET /debug/traces", tr.Handler("/debug/traces"))
	mux.Handle("GET /debug/traces/", tr.Handler("/debug/traces"))
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
}

// Gate is the one listener. It binds the listen address before the daemon
// loads anything and answers liveness (200) and readiness (503 "loading")
// until Ready swaps in the real handler. Routers probing /readyz therefore
// see a restarting shard as alive-but-not-ready instead of
// connection-refused, and scripts waiting on an address file can start
// polling during the load.
type Gate struct {
	handler atomic.Value // http.Handler
	srv     *http.Server
	done    chan struct{}
}

// NewGate returns a Gate serving the loading stub.
func NewGate() *Gate {
	g := &Gate{done: make(chan struct{})}
	stub := http.NewServeMux()
	stub.HandleFunc("GET /healthz", Healthz)
	stub.HandleFunc("GET /readyz", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteJSON(w, http.StatusServiceUnavailable, api.Ready{Ready: false, Reason: "loading"})
	})
	stub.HandleFunc("/", func(w http.ResponseWriter, _ *http.Request) {
		api.WriteError(w, &api.Error{Status: http.StatusServiceUnavailable, Code: api.CodeLoading,
			Msg: "daemon is still loading its artifacts", RetryAfter: time.Second})
	})
	g.handler.Store(http.Handler(stub))
	return g
}

// Ready swaps the loading stub for the real handler. Safe to call while
// requests are in flight; subsequent requests see h.
func (g *Gate) Ready(h http.Handler) { g.handler.Store(h) }

// ServeHTTP dispatches to the current handler.
func (g *Gate) ServeHTTP(w http.ResponseWriter, req *http.Request) {
	g.handler.Load().(http.Handler).ServeHTTP(w, req)
}

// Start binds addr (":0" for ephemeral) and serves until Shutdown, returning
// the resolved listen address.
func (g *Gate) Start(addr string) (string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return "", err
	}
	g.srv = &http.Server{Handler: g, ReadHeaderTimeout: 10 * time.Second}
	go func() {
		defer close(g.done)
		_ = g.srv.Serve(ln) // ErrServerClosed on Shutdown is the normal path
	}()
	return ln.Addr().String(), nil
}

// Shutdown stops accepting connections and waits (bounded by ctx) for
// in-flight requests. Flip the served daemon's drain flag first, so requests
// that reach it meanwhile are refused while the admitted ones finish. Safe
// to call without Start.
func (g *Gate) Shutdown(ctx context.Context) error {
	if g.srv == nil {
		return nil
	}
	err := g.srv.Shutdown(ctx)
	<-g.done
	return err
}

// Lifecycle is the sequence soid and soigw share: Bind, load the artifacts,
// then Serve until SIGINT/SIGTERM, drain, and write the run report. Its
// exported settings are the flags both daemons take (Register); Bind builds
// the telemetry both serve with.
type Lifecycle struct {
	Tool         string        // daemon name: stderr notices, run report, trace service
	Addr         string        // -addr
	AddrFile     string        // -addr-file
	DrainTimeout time.Duration // -drain-timeout
	StatsJSON    string        // -stats-json

	TraceRing      int           // -trace-ring; 0 disables tracing
	TraceSample    float64       // -trace-sample
	TraceSlow      time.Duration // -trace-slow
	RequestLogPath string        // -request-log

	// Telemetry, Tracer (nil with -trace-ring 0) and RequestLog (nil
	// without -request-log) are built by Bind.
	Telemetry  *telemetry.Registry
	Tracer     *trace.Tracer
	RequestLog *trace.RequestLog

	gate *Gate
}

// Register installs the flags both daemons take on fs; addr is -addr's
// default.
func (l *Lifecycle) Register(fs *flag.FlagSet, addr string) {
	fs.StringVar(&l.Addr, "addr", addr, "listen address; :0 picks an ephemeral port")
	fs.StringVar(&l.AddrFile, "addr-file", "", "write the resolved listen address to this file (scripts waiting on :0)")
	fs.DurationVar(&l.DrainTimeout, "drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
	fs.StringVar(&l.StatsJSON, "stats-json", "", "write the machine-readable run report to this file on exit")
	fs.IntVar(&l.TraceRing, "trace-ring", 512,
		"retained-trace ring size (/debug/traces); 0 disables tracing entirely")
	fs.Float64Var(&l.TraceSample, "trace-sample", 0.01,
		"probability an unremarkable trace is retained (errors/206s/slow are always kept); negative keeps only remarkable traces")
	fs.DurationVar(&l.TraceSlow, "trace-slow", 500*time.Millisecond,
		"requests at least this slow are always retained")
	fs.StringVar(&l.RequestLogPath, "request-log", "",
		"append one JSON line per request to this file")
}

// Bind starts the Gate on Addr before anything loads, writes the resolved
// address to AddrFile (when set), and builds the telemetry registry, the
// tracer and the request log. It returns the resolved address.
func (l *Lifecycle) Bind() (string, error) {
	l.gate = NewGate()
	resolved, err := l.gate.Start(l.Addr)
	if err != nil {
		return "", err
	}
	if l.AddrFile != "" {
		if err := atomicfile.WriteFile(l.AddrFile, func(w io.Writer) error {
			_, err := fmt.Fprintln(w, resolved)
			return err
		}); err != nil {
			return "", err
		}
	}
	l.Telemetry = telemetry.New()
	l.Telemetry.SetTool(l.Tool)
	if l.TraceRing > 0 {
		l.Tracer = trace.New(trace.Options{
			Service:       l.Tool,
			RingSize:      l.TraceRing,
			SampleRate:    l.TraceSample,
			SlowThreshold: l.TraceSlow,
			Telemetry:     l.Telemetry,
		})
	}
	if l.RequestLogPath != "" {
		if l.RequestLog, err = trace.OpenRequestLog(l.RequestLogPath); err != nil {
			return "", fmt.Errorf("opening request log: %w", err)
		}
	}
	return resolved, nil
}

// Serve swaps h in and serves until SIGINT/SIGTERM, then drains: drain flips
// the daemon's drain flag (new requests get 503 "draining", /readyz goes
// not-ready), and the listener waits for the admitted requests, bounded by
// DrainTimeout. The run report goes to StatsJSON and the request log is
// closed either way. Call Bind first.
func (l *Lifecycle) Serve(h http.Handler, drain func()) error {
	// Catch the signals before the first query can be answered, so a signal
	// sent to a ready daemon always drains it.
	sigCtx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	l.gate.Ready(h)
	<-sigCtx.Done()
	stop()
	log.Printf("draining (timeout %s)", l.DrainTimeout)
	ctx, cancel := context.WithTimeout(context.Background(), l.DrainTimeout)
	defer cancel()
	drain()
	err := l.gate.Shutdown(ctx)
	WriteReport(l.Tool, l.StatsJSON, l.Telemetry.Report())
	l.RequestLog.Close()
	if err != nil {
		return fmt.Errorf("drain: %w", err)
	}
	log.Printf("drained cleanly")
	return nil
}

// WriteReport atomically writes rep as JSON to path (no-op for an empty
// path). A failure is reported on stderr and otherwise ignored: telemetry
// must not turn a successful run into a failed one.
func WriteReport(tool, path string, rep telemetry.Report) {
	if path == "" {
		return
	}
	err := atomicfile.WriteFile(path, func(w io.Writer) error {
		b, err := rep.JSON()
		if err != nil {
			return err
		}
		_, err = w.Write(b)
		return err
	})
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: writing stats to %s: %v\n", tool, path, err)
	}
}
