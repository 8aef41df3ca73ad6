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
// Responses are JSON. A request whose budget truncates sampling returns HTTP
// 206 with the achieved sample count and an error bound; an overloaded
// server sheds requests with 429 + Retry-After. /metrics, /debug/vars and
// /debug/pprof/ are served on the same address. SIGINT/SIGTERM drain
// gracefully: in-flight requests finish (bounded by -drain-timeout), new
// ones get 503.
//
// With -mmap (or SOI_INDEX_MMAP=1) the index file is memory-mapped and world
// blocks fault in on demand instead of being loaded eagerly: startup is
// near-instant and resident memory tracks the touched worlds. Corrupt blocks
// are quarantined rather than fatal — queries keep answering over the
// surviving worlds with HTTP 206 and a widened error bound until the file is
// repaired with soifsck. Eager and mapped loads read the same SOIIDX03 file
// and report the same index fingerprint.
//
// Exit codes: 0 clean shutdown, 1 startup or serving errors.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"os"
	"strconv"
	"time"

	"soi"
	"soi/internal/checkpoint"
	"soi/internal/cliutil"
	"soi/internal/core"
	"soi/internal/daemon"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/server"
	"soi/internal/sketch"
	"soi/internal/telemetry"
)

func main() {
	var (
		graphPath = flag.String("graph", "", "edge-list TSV file (required)")
		indexPath = flag.String("index", "", "prebuilt index file (sphere -build-index); empty builds one in memory")
		mmapIdx   = flag.Bool("mmap", os.Getenv("SOI_INDEX_MMAP") == "1",
			"memory-map the -index file and fault world blocks in on demand; corrupt blocks are quarantined, not fatal (default from SOI_INDEX_MMAP=1)")
		spherePath  = flag.String("spheres", "", "sphere store file (sphere -all -store); enables /v1/seeds")
		sketchPath  = flag.String("sketch", "", "combined bottom-k sketch file (sphere -sketch-out); enables estimator=sketch on /v1/{spread,sphere,seeds}")
		samples     = flag.Int("samples", 1000, "worlds ℓ when building the index in memory (no -index)")
		ltModel     = flag.Bool("lt", false, "Linear Threshold model (must match how the index was built)")
		addr        = flag.String("addr", "localhost:7199", "listen address; :0 picks an ephemeral port")
		addrFile    = flag.String("addr-file", "", "write the resolved listen address to this file (scripts waiting on :0)")
		expectFP    = flag.String("expect-fp", "", "refuse to start unless the graph fingerprint (soi.Fingerprint, hex) matches")
		cacheSize   = flag.Int("cache", 4096, "result cache entries; 0 disables caching")
		maxInflight = flag.Int("max-inflight", 0, "max concurrently computing requests; 0 means GOMAXPROCS")
		maxQueue    = flag.Int("max-queue", 0, "max requests queued for a compute slot; 0 means 4x max-inflight, -1 disables queueing")
		defBudget   = flag.Duration("default-budget", 2*time.Second, "per-request budget when the request has no budget parameter")
		maxBudget   = flag.Duration("max-budget", 30*time.Second, "cap on the per-request budget parameter")
		costSamples = flag.Int("cost-samples", 200, "default held-out samples for stability estimates")
		trials      = flag.Int("trials", 1000, "default Monte-Carlo trials for /v1/spread method=mc")
		seed        = flag.Uint64("seed", 1, "server sampling seed (fixed so identical queries are cacheable)")
		drain       = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		statsJSON   = flag.String("stats-json", "", "write the machine-readable run report to this file on exit")
		tflags      cliutil.TraceFlags
	)
	tflags.Register(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("soid: ")
	if err := run(*graphPath, *indexPath, *spherePath, *sketchPath, *samples, *ltModel, *mmapIdx,
		*addr, *addrFile, *expectFP, *cacheSize, *maxInflight, *maxQueue,
		*defBudget, *maxBudget, *costSamples, *trials, *seed, *drain, *statsJSON, tflags); err != nil {
		log.Fatal(err)
	}
}

func run(graphPath, indexPath, spherePath, sketchPath string, samples int, lt, mmapIdx bool,
	addr, addrFile, expectFP string, cacheSize, maxInflight, maxQueue int,
	defBudget, maxBudget time.Duration, costSamples, trials int, seed uint64,
	drain time.Duration, statsJSON string, tflags cliutil.TraceFlags) error {
	if graphPath == "" {
		return fmt.Errorf("-graph is required")
	}
	if mmapIdx && indexPath == "" {
		return fmt.Errorf("-mmap requires -index (there is no file to map)")
	}
	if cacheSize == 0 {
		cacheSize = -1 // flag semantics: 0 disables; Config uses negative for that
	}

	// Bind the address before loading anything: /healthz answers 200 and
	// /readyz 503 "loading" from the first instant, so routers and scripts
	// can tell "starting up" from "dead" while the artifacts load.
	life := daemon.Lifecycle{Tool: "soid", Addr: addr, AddrFile: addrFile, DrainTimeout: drain, StatsJSON: statsJSON}
	resolved, err := life.Bind()
	if err != nil {
		return err
	}
	log.Printf("listening on http://%s (loading artifacts)", resolved)

	g, orig, err := graph.LoadFile(graphPath)
	if err != nil {
		return err
	}
	graphFP := soi.Fingerprint(g)
	if expectFP != "" {
		want, err := strconv.ParseUint(expectFP, 16, 64)
		if err != nil {
			return fmt.Errorf("bad -expect-fp %q: %v", expectFP, err)
		}
		if graphFP != want {
			return fmt.Errorf("graph fingerprint mismatch: %s has %016x, -expect-fp wants %016x — wrong dataset?",
				graphPath, graphFP, want)
		}
	}

	model := index.IC
	if lt {
		model = index.LT
	}
	tel := telemetry.New()
	tel.SetTool("soid")
	tel.SetSeed(seed)
	tel.SetGraphHash(graphFP)
	telemetry.PublishExpvar("soi", tel)

	var x *index.Index
	if mmapIdx {
		x, err = index.OpenMmap(indexPath, g, index.MmapOptions{
			Telemetry: tel,
			OnQuarantine: func(world int, qerr error) {
				log.Printf("QUARANTINE world %d: %v (answers degrade to 206; repair %s with soifsck)",
					world, qerr, indexPath)
			},
		})
		if err != nil {
			return fmt.Errorf("mapping index %s: %w", indexPath, err)
		}
		defer x.Close()
	} else if indexPath != "" {
		x, err = index.LoadFile(indexPath, g)
		if err != nil {
			return fmt.Errorf("loading index %s (does it belong to %s?): %w", indexPath, graphPath, err)
		}
		x.SetTelemetry(tel)
	} else {
		log.Printf("no -index given; building %d worlds in memory", samples)
		x, err = index.Build(context.Background(), g, index.Options{
			Samples: samples, Seed: seed,
			Model: model, Telemetry: tel,
		}, checkpoint.Config{})
		if err != nil {
			return err
		}
	}

	var spheres []core.Result
	if spherePath != "" {
		spheres, err = core.LoadSpheresFile(spherePath)
		if err != nil {
			return fmt.Errorf("loading sphere store %s: %w", spherePath, err)
		}
	}

	var sk *sketch.Sketch
	if sketchPath != "" {
		sk, err = sketch.LoadFile(sketchPath)
		if err != nil {
			return fmt.Errorf("loading sketch %s: %w", sketchPath, err)
		}
		sk.SetTelemetry(tel)
	}

	reqLog, err := tflags.OpenRequestLog()
	if err != nil {
		return fmt.Errorf("opening request log: %w", err)
	}
	defer reqLog.Close()

	srv, err := server.New(server.Config{
		Graph:         g,
		OrigIDs:       orig,
		Index:         x,
		Spheres:       spheres,
		Sketch:        sk,
		Model:         model,
		Telemetry:     tel,
		Tracer:        tflags.Tracer("soid", tel),
		RequestLog:    reqLog,
		CacheSize:     cacheSize,
		MaxInflight:   maxInflight,
		MaxQueue:      maxQueue,
		DefaultBudget: defBudget,
		MaxBudget:     maxBudget,
		CostSamples:   costSamples,
		Trials:        trials,
		Seed:          seed,
	})
	if err != nil {
		return err
	}

	log.Printf("serving on http://%s  graph=%016x index=%016x nodes=%d worlds=%d spheres=%v sketch=%v mmap=%v",
		resolved, graphFP, srv.IndexFingerprint(), g.NumNodes(), x.NumWorlds(), spheres != nil, sk != nil, x.Lazy())
	return life.Serve(srv.Handler(), srv.Drain, tel)
}
