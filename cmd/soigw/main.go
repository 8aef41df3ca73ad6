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
// Every /v1 request runs the pipeline soid runs (internal/daemon): the
// budget parameter (2s when absent, capped at 30s), the response cache,
// singleflight, and the degraded accounting. Each shard leg gets the
// client's budget less 300ms for the merge, and at least half of it.
//
// Caching: while probing runs, complete (200) answers are kept in an LRU
// as in soid, keyed on the query but its budget and on the index
// fingerprints the replicas last reported on /readyz, so a repeated query
// makes no shard leg. With -probe-interval negative nothing could retire
// an entry computed from replaced artifacts, so nothing is cached.
//
// Exit codes: 0 clean shutdown, 1 startup or serving errors.
package main

import (
	"flag"
	"fmt"
	"log"
	"strings"
	"time"

	"soi/internal/daemon"
	"soi/internal/router"
)

// options are soigw's own flags; daemon.Lifecycle holds the ones it shares
// with soid.
type options struct {
	topology, replicas string
	retries            int
	retryBase, hedge   time.Duration
	brkFails           int
	brkCool, probe     time.Duration
}

// flags registers every soigw flag on fs.
func flags(fs *flag.FlagSet) (*options, *daemon.Lifecycle) {
	o := &options{}
	fs.StringVar(&o.topology, "topology", "", "soi.topology/v1 manifest written by sphere -shards (required)")
	fs.StringVar(&o.replicas, "replicas", "", "replica URLs per shard: groups separated by ';' in shard order, replicas within a group by ',' (required)")
	fs.IntVar(&o.retries, "retries", 2, "max re-sends per shard leg after the first attempt; negative disables")
	fs.DurationVar(&o.retryBase, "retry-base", 25*time.Millisecond, "exponential-backoff base (full jitter)")
	fs.DurationVar(&o.hedge, "hedge-delay", 30*time.Millisecond, "hedging delay floor; negative disables hedging")
	fs.IntVar(&o.brkFails, "breaker-failures", 5, "consecutive failures that open a replica's circuit breaker")
	fs.DurationVar(&o.brkCool, "breaker-cooldown", time.Second, "how long an open breaker refuses traffic before probing")
	fs.DurationVar(&o.probe, "probe-interval", time.Second, "/readyz health-probe period; negative disables probing")
	life := &daemon.Lifecycle{Tool: "soigw"}
	life.Register(fs, "localhost:7200")
	return o, life
}

func main() {
	o, life := flags(flag.CommandLine)
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("soigw: ")
	if err := run(o, life); err != nil {
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

func run(o *options, life *daemon.Lifecycle) error {
	if o.topology == "" {
		return fmt.Errorf("-topology is required")
	}
	groups, err := parseReplicas(o.replicas)
	if err != nil {
		return err
	}
	resolved, err := life.Bind()
	if err != nil {
		return err
	}
	topo, err := router.LoadTopology(o.topology)
	if err != nil {
		return err
	}

	retries := o.retries
	if retries == 0 {
		retries = -1 // Config semantics: 0 selects the default, negative disables
	}
	rt, err := router.New(router.Config{
		Topology:        topo,
		Replicas:        groups,
		MaxRetries:      retries,
		RetryBase:       o.retryBase,
		HedgeDelay:      o.hedge,
		BreakerFailures: o.brkFails,
		BreakerCooldown: o.brkCool,
		ProbeInterval:   o.probe,
		Telemetry:       life.Telemetry,
		Tracer:          life.Tracer,
		RequestLog:      life.RequestLog,
	})
	if err != nil {
		return err
	}
	rt.StartProbing()
	log.Printf("serving on http://%s  shards=%d nodes=%d cut_edges=%d graph=%s",
		resolved, len(topo.Shards), topo.NumNodes, topo.CutEdges, topo.GraphFingerprint)
	return life.Serve(rt.Handler(), rt.Drain)
}
