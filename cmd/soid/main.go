// Command soid is the soi query-serving daemon: it loads a graph, a prebuilt
// cascade index, and optionally a sphere store once, then serves concurrent
// sphere / stability / seed-selection / spread / reliability / mode queries
// over HTTP/JSON until terminated.
//
// Typical usage:
//
//	sphere -graph network.tsv -samples 1000 -build-index idx.bin
//	sphere -graph network.tsv -index idx.bin -all -store spheres.tsv
//	soid -graph network.tsv -index idx.bin -spheres spheres.tsv -addr :7199
//
//	curl localhost:7199/v1/sphere/42
//	curl 'localhost:7199/v1/seeds?k=10'
//	curl 'localhost:7199/v1/spread?seeds=3,7&method=mc&budget=100ms'
//
// Responses are JSON. A request's budget parameter defaults to 2s and is
// capped at 30s; a request whose budget truncates sampling returns HTTP 206
// with the achieved sample count and an error bound. Complete answers are
// kept in a 4096-entry cache keyed on the query but its budget. An
// overloaded server sheds requests with 429 + Retry-After. /metrics,
// /debug/traces and /debug/pprof/ are served on the same address.
// SIGINT/SIGTERM drain gracefully: in-flight requests finish (bounded by
// -drain-timeout), new ones get 503.
//
// soid serves only a saved index, sampled from -graph: without -index it
// exits 1 naming the sphere command that builds one. Samples follow the
// index's model (logged as model=IC|LT). The index loads eagerly, and a
// corrupt world block is quarantined rather than fatal: the load logs
// "QUARANTINE world N", counts it in index.worlds_quarantined, and queries
// answer over the surviving worlds with HTTP 206 and a widened error bound
// (503 "degraded" once every world is lost) until the file is repaired with
// soifsck. Damage to the file's header or block directory, or truncation,
// refuses startup. Quarantine is settled before /readyz turns ready.
//
// The sphere store and the sketch load eagerly and strictly: a corrupt block,
// or a store or sketch computed from any index but the loaded one, refuses
// startup with the sphere command that rebuilds it.
//
// Exit codes: 0 clean shutdown, 1 startup or serving errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"path/filepath"
	"strconv"
	"strings"

	"soi"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/server"
	"soi/internal/sketch"
	"soi/internal/telemetry"
)

// options are soid's own flags; daemon.Lifecycle holds the ones it shares
// with soigw.
type options struct {
	graph, index, spheres, sketch string
	expectFP                      string
	maxInflight, maxQueue         int
	costSamples, trials           int
	seed                          uint64
}

// flags registers every soid flag on fs.
func flags(fs *flag.FlagSet) (*options, *daemon.Lifecycle) {
	o := &options{}
	fs.StringVar(&o.graph, "graph", "", "edge-list TSV file (required)")
	fs.StringVar(&o.index, "index", "", "prebuilt index file from sphere -build-index (required)")
	fs.StringVar(&o.spheres, "spheres", "", "sphere store file (sphere -all -store); enables /v1/seeds")
	fs.StringVar(&o.sketch, "sketch", "", "combined bottom-k sketch file (sphere -sketch-out); enables estimator=sketch on /v1/{spread,sphere,seeds}")
	fs.StringVar(&o.expectFP, "expect-fp", "", "refuse to start unless the graph fingerprint (soi.Fingerprint, hex) matches")
	fs.IntVar(&o.maxInflight, "max-inflight", 0, "max concurrently computing requests; 0 means GOMAXPROCS")
	fs.IntVar(&o.maxQueue, "max-queue", 0, "max requests queued for a compute slot; 0 means 4x max-inflight, -1 disables queueing")
	fs.IntVar(&o.costSamples, "cost-samples", 200, "default held-out samples for stability estimates")
	fs.IntVar(&o.trials, "trials", 1000, "default Monte-Carlo trials for /v1/spread method=mc")
	fs.Uint64Var(&o.seed, "seed", 1, "server sampling seed (fixed so identical queries are cacheable)")
	life := &daemon.Lifecycle{Tool: "soid"}
	life.Register(fs, "localhost:7199")
	return o, life
}

func main() {
	o, life := flags(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("soid: ")
	if err := run(o, life); err != nil {
		log.Fatal(err)
	}
}

func run(o *options, life *daemon.Lifecycle) error {
	if o.graph == "" {
		return fmt.Errorf("-graph is required")
	}

	// Bind the address before loading anything: /healthz answers 200 and
	// /readyz 503 "loading" from the first instant, so routers and scripts
	// can tell "starting up" from "dead" while the artifacts load.
	resolved, err := life.Bind()
	if err != nil {
		return err
	}
	log.Printf("listening on http://%s (loading artifacts)", resolved)

	g, orig, err := graph.LoadFile(o.graph)
	if err != nil {
		return err
	}
	graphFP := soi.Fingerprint(g)
	if o.expectFP != "" {
		want, err := strconv.ParseUint(o.expectFP, 16, 64)
		if err != nil {
			return fmt.Errorf("bad -expect-fp %q: %v", o.expectFP, err)
		}
		if graphFP != want {
			return fmt.Errorf("graph fingerprint mismatch: %s has %016x, -expect-fp wants %016x — wrong dataset?",
				o.graph, graphFP, want)
		}
	}

	tel := life.Telemetry
	tel.SetSeed(o.seed)
	tel.SetGraphHash(graphFP)
	ctx := telemetry.NewContext(context.Background(), tel)

	if o.index == "" {
		return fmt.Errorf("-index is required: build one with sphere -graph %s -build-index %s.idx",
			o.graph, strings.TrimSuffix(o.graph, filepath.Ext(o.graph)))
	}
	x, err := index.LoadServing(ctx, o.index, g, func(world int, qerr error) {
		log.Printf("QUARANTINE world %d: %v (answers degrade to 206; repair %s with soifsck)",
			world, qerr, o.index)
	})
	if err != nil {
		return fmt.Errorf("loading index %s (does it belong to %s?): %w", o.index, o.graph, err)
	}

	var spheres []core.Result
	if o.spheres != "" {
		spheres, err = core.LoadSpheresFor(o.spheres, x)
		if err != nil {
			return fmt.Errorf("loading sphere store %s: %w", o.spheres, err)
		}
	}

	var sk *sketch.Sketch
	if o.sketch != "" {
		sk, err = sketch.LoadFile(o.sketch)
		if err == nil {
			err = sketch.CheckServable(sk.K())
		}
		if err != nil {
			return fmt.Errorf("loading sketch %s: %w", o.sketch, err)
		}
		sk.SetTelemetry(tel)
	}

	srv, err := server.New(server.Config{
		OrigIDs:     orig,
		Index:       x,
		Spheres:     spheres,
		Sketch:      sk,
		Telemetry:   tel,
		Tracer:      life.Tracer,
		RequestLog:  life.RequestLog,
		MaxInflight: o.maxInflight,
		MaxQueue:    o.maxQueue,
		CostSamples: o.costSamples,
		Trials:      o.trials,
		Seed:        o.seed,
	})
	if err != nil {
		return err
	}

	log.Printf("serving on http://%s  graph=%016x index=%016x model=%s nodes=%d worlds=%d quarantined=%d spheres=%v sketch=%v",
		resolved, graphFP, x.Fingerprint(), x.Model(), g.NumNodes(), x.NumWorlds(), x.QuarantinedWorlds(), spheres != nil, sk != nil)
	return life.Serve(srv.Handler(), srv.Drain)
}
