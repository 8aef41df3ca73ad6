// Command soigw is the soi scatter-gather gateway: it fronts a fleet of
// soid shard daemons (partitioned with `sphere -shards`) behind the same
// /v1 API a single soid serves, fanning each query out to the shards that
// own the queried nodes and merging the answers with explicit error-bound
// accounting.
//
// Typical usage:
//
//	sphere -graph network.tsv -shards 2 -shard-out deploy/net -samples 1000
//	soid -graph deploy/net-shard0.tsv -index deploy/net-shard0.idx -spheres deploy/net-shard0.spheres -addr :7201
//	soid -graph deploy/net-shard1.tsv -index deploy/net-shard1.idx -spheres deploy/net-shard1.spheres -addr :7202
//	soigw -topology deploy/net-topology.json -replicas 'localhost:7201;localhost:7202' -addr :7200
//
//	curl 'localhost:7200/v1/seeds?k=10'
//	curl 'localhost:7200/v1/spread?seeds=3,7&budget=500ms'
//
// Robustness: per-shard retries with backoff and jitter, hedged requests
// against replica stragglers, per-replica circuit breakers, /readyz health
// probing with fingerprint verification, and degraded answers — when a
// shard is lost mid-query the gateway answers HTTP 206 with
// shards_ok/shards_total and an error bound widened to cover everything the
// dead shard could have contributed, instead of failing the query.
//
// Caching: while probing runs, complete (200) answers are kept in an LRU
// as in soid, keyed on the query and the index fingerprints the replicas
// last reported on /readyz, so a repeated query makes no shard leg. With
// -probe-interval negative nothing could retire an entry computed from
// replaced artifacts, so nothing is cached.
//
// Exit codes: 0 clean shutdown, 1 startup or serving errors.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"soi/internal/cliutil"
	"soi/internal/daemon"
	"soi/internal/router"
	"soi/internal/telemetry"
)

func main() {
	var (
		topoPath  = flag.String("topology", "", "soi.topology/v1 manifest written by sphere -shards (required)")
		replicas  = flag.String("replicas", "", "replica URLs per shard: groups separated by ';' in shard order, replicas within a group by ',' (required)")
		addr      = flag.String("addr", "localhost:7200", "listen address; :0 picks an ephemeral port")
		addrFile  = flag.String("addr-file", "", "write the resolved listen address to this file")
		retries   = flag.Int("retries", 2, "max re-sends per shard leg after the first attempt; negative disables")
		retryBase = flag.Duration("retry-base", 25*time.Millisecond, "exponential-backoff base (full jitter)")
		hedge     = flag.Duration("hedge-delay", 30*time.Millisecond, "hedging delay floor; negative disables hedging")
		brkFails  = flag.Int("breaker-failures", 5, "consecutive failures that open a replica's circuit breaker")
		brkCool   = flag.Duration("breaker-cooldown", time.Second, "how long an open breaker refuses traffic before probing")
		probe     = flag.Duration("probe-interval", time.Second, "/readyz health-probe period; negative disables probing")
		grace     = flag.Duration("merge-grace", 300*time.Millisecond, "budget slice reserved for gather+merge (shards get budget minus this)")
		defBudget = flag.Duration("default-budget", 2*time.Second, "per-request budget when the request has no budget parameter")
		maxBudget = flag.Duration("max-budget", 30*time.Second, "cap on the per-request budget parameter")
		drain     = flag.Duration("drain-timeout", 30*time.Second, "how long shutdown waits for in-flight requests")
		statsJSON = flag.String("stats-json", "", "write the machine-readable run report to this file on exit")
		tflags    cliutil.TraceFlags
	)
	tflags.Register(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("soigw: ")
	if err := run(*topoPath, *replicas, *addr, *addrFile, *retries, *retryBase,
		*hedge, *brkFails, *brkCool, *probe, *grace, *defBudget, *maxBudget,
		*drain, *statsJSON, tflags); err != nil {
		log.Fatal(err)
	}
}

// parseReplicas splits "a,b;c" into [["http://a","http://b"],["http://c"]],
// defaulting bare host:port entries to http.
func parseReplicas(spec string) ([][]string, error) {
	if spec == "" {
		return nil, fmt.Errorf("-replicas is required")
	}
	var out [][]string
	for i, group := range strings.Split(spec, ";") {
		var urls []string
		for _, u := range strings.Split(group, ",") {
			u = strings.TrimSpace(u)
			if u == "" {
				continue
			}
			if !strings.Contains(u, "://") {
				u = "http://" + u
			}
			urls = append(urls, strings.TrimRight(u, "/"))
		}
		if len(urls) == 0 {
			return nil, fmt.Errorf("replica group %d is empty", i)
		}
		out = append(out, urls)
	}
	return out, nil
}

func run(topoPath, replicaSpec, addr, addrFile string, retries int,
	retryBase, hedge time.Duration, brkFails int, brkCool, probe, grace,
	defBudget, maxBudget, drain time.Duration, statsJSON string,
	tflags cliutil.TraceFlags) error {
	if topoPath == "" {
		return fmt.Errorf("-topology is required")
	}
	groups, err := parseReplicas(replicaSpec)
	if err != nil {
		return err
	}
	life := daemon.Lifecycle{Tool: "soigw", Addr: addr, AddrFile: addrFile, DrainTimeout: drain, StatsJSON: statsJSON}
	resolved, err := life.Bind()
	if err != nil {
		return err
	}
	topo, err := router.LoadTopology(topoPath)
	if err != nil {
		return err
	}

	tel := telemetry.New()
	tel.SetTool("soigw")
	telemetry.PublishExpvar("soi", tel)

	if retries == 0 {
		retries = -1 // Config semantics: 0 selects the default, negative disables
	}
	reqLog, err := tflags.OpenRequestLog()
	if err != nil {
		return fmt.Errorf("opening request log: %w", err)
	}
	defer reqLog.Close()
	rt, err := router.New(router.Config{
		Topology:        topo,
		Replicas:        groups,
		MaxRetries:      retries,
		RetryBase:       retryBase,
		HedgeDelay:      hedge,
		BreakerFailures: brkFails,
		BreakerCooldown: brkCool,
		ProbeInterval:   probe,
		MergeGrace:      grace,
		DefaultBudget:   defBudget,
		MaxBudget:       maxBudget,
		Telemetry:       tel,
		Tracer:          tflags.Tracer("soigw", tel),
		RequestLog:      reqLog,
	})
	if err != nil {
		return err
	}
	rt.StartProbing()
	log.Printf("serving on http://%s  shards=%d nodes=%d cut_edges=%d graph=%s",
		resolved, len(topo.Shards), topo.NumNodes, topo.CutEdges, topo.GraphFingerprint)
	return life.Serve(rt.Handler(), rt.Drain, tel)
}
