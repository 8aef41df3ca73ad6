package server

import (
	"context"
	"fmt"
	"net"
	"net/http"
	"sync/atomic"
	"time"

	"soi/internal/api"
)

// Gate is the daemon's front door during startup: it binds the listen
// address immediately — before the graph, index, and sphere store are loaded
// — and answers liveness (200) and readiness (503 "loading") until Ready
// swaps in the real handler. Routers probing /readyz therefore see a
// restarting shard as alive-but-not-ready instead of connection-refused, and
// scripts waiting on an address file can start polling during the load.
type Gate struct {
	handler atomic.Value // http.Handler
	srv     *http.Server
	done    chan struct{}
}

// NewGate returns a Gate serving the loading stub.
func NewGate() *Gate {
	g := &Gate{done: make(chan struct{})}
	stub := http.NewServeMux()
	stub.HandleFunc("GET /healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		fmt.Fprintln(w, "ok")
	})
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
// in-flight requests. The swapped-in Server's own drain flag should be
// flipped first so new requests are refused while old ones finish.
func (g *Gate) Shutdown(ctx context.Context) error {
	if g.srv == nil {
		return nil
	}
	err := g.srv.Shutdown(ctx)
	<-g.done
	return err
}
