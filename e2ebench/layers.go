package main

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"os"
	"path/filepath"
	"slices"
	"time"

	"soi/internal/cascade"
	"soi/internal/core"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// Daemon positions in a phase's scrapes.
const (
	gwDaemon = 0
	shard0   = 1
	shard1   = 2
)

var endpoints = []string{"sphere", "spread", "seeds"}

// traceServing is the attribution run of a serving workload. It sends the
// same schedule twice, each time to fresh daemons: once with tracing off,
// whose /metrics deltas give the counter-based layer metrics, and once with
// every request traced, whose spans give the gateway's self time and the
// admission wait, and whose p50 against the first gives the tracing
// overhead. Then it times the estimator calls of the schedule in-process on
// the same shard artifacts, and measures the build layers (see traceBuild).
func traceServing(opts options, art *artifacts, s schedule, pop *population, o *outcome) error {
	plain, err := runPhase(opts, art, s, false, 1)
	if err != nil {
		return err
	}
	traced, err := runPhase(opts, art, s, true, 1)
	if err != nil {
		return err
	}
	ref, err := loadReference(art, false)
	if err != nil {
		return err
	}
	vp := verifyPhase(ref, s, plain, opts.seed, o)
	vt := verifyPhase(ref, s, traced, opts.seed, o)
	sent := float64(len(plain.measured))
	o.stealPct = plain.stealPct
	val := o.values

	b, a := plain.before, plain.after
	reqs := counterDelta(b, a, "soi_router_requests_total", gwDaemon)
	legs := histDelta(b, a, "soi_router_shard_latency_ns", gwDaemon)
	val["router.legs_per_req"] = ratio(float64(legs.Count), reqs)
	val["router.leg_p50_ms"] = legs.Quantile(0.5) / 1e6
	val["router.retries_per_1k"] = 1000 * ratio(counterDelta(b, a, "soi_router_retries_total", gwDaemon), reqs)
	val["router.hedges_per_1k"] = 1000 * ratio(counterDelta(b, a, "soi_router_hedges_total", gwDaemon), reqs)
	val["router.degraded_ratio"] = float64(vp.degraded) / sent
	hits := counterDelta(b, a, "soi_server_cache_hits_total", shard0, shard1)
	misses := counterDelta(b, a, "soi_server_cache_misses_total", shard0, shard1)
	val["server.cache_hit_ratio"] = ratio(hits, hits+misses)
	val["server.singleflight_shared"] = counterDelta(b, a, "soi_server_singleflight_shared_total", shard0, shard1)
	var all telemetry.HistogramSnapshot
	for _, ep := range endpoints {
		h := histDelta(b, a, "soi_server_latency_ns_"+ep, shard0, shard1)
		val["server.handler_p50_ms."+ep] = h.Quantile(0.5) / 1e6
		all = mergeHist(all, h)
	}
	val["server.handler_ms_per_req"] = float64(all.Sum) / 1e6 / sent
	val["net.leg_overhead_ms"] = val["router.leg_p50_ms"] - all.Quantile(0.5)/1e6
	val["server.resp_bytes_per_req"] = float64(vp.bytes) / sent
	val["answer.bound_rel_p50"] = median(vp.boundRel)
	val["loadgen.max_late_ms"] = float64(max(vp.maxLate, vt.maxLate)) / float64(time.Millisecond)
	val["loadgen.sent"] = sent
	val["loadgen.degraded"] = float64(vp.degraded)
	val["trace.overhead_ms"] = quantile(vt.latencyMS, 0.5) - quantile(vp.latencyMS, 0.5)
	val["loadgen.p90_ms"] = quantile(vp.latencyMS, 0.9)

	var self, wait []float64
	for _, t := range traced.traces {
		if t.gw != nil {
			if leg := t.gw.longest("soigw.leg"); leg > 0 {
				self = append(self, t.gw.DurationMS-leg)
			}
		}
		for _, sh := range t.shards {
			wait = append(wait, sh.sum("admission.wait"))
		}
	}
	val["router.self_ms"] = median(self)
	val["server.admission_wait_ms"] = mean(wait)

	for layer, sec := range ref.loadS {
		val[layer] = sec
	}
	var xs []*index.Index
	for _, sh := range ref.shards {
		xs = append(xs, sh.x)
	}
	artifactLayers(art, xs, val)
	computeMS := timeEstimators(ref, s, val)
	val["server.compute_share"] = ratio(computeMS, float64(all.Sum)/1e6)
	return traceBuild(opts, art, ref, pop, o)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// mergeHist adds two histogram snapshots bucket by bucket.
func mergeHist(a, b telemetry.HistogramSnapshot) telemetry.HistogramSnapshot {
	counts := map[int64]int64{}
	for _, bk := range a.Buckets {
		counts[bk.Le] += bk.Count
	}
	for _, bk := range b.Buckets {
		counts[bk.Le] += bk.Count
	}
	out := telemetry.HistogramSnapshot{Count: a.Count + b.Count, Sum: a.Sum + b.Sum}
	for le := int64(0); ; le = le*2 + 1 {
		if n, ok := counts[le]; ok {
			out.Buckets = append(out.Buckets, telemetry.Bucket{Le: le, Count: n})
			delete(counts, le)
		}
		if len(counts) == 0 || le > 1<<62 {
			break
		}
	}
	return out
}

// artifactLayers reports the file sizes of the artifacts and the shape of
// their loaded indexes.
func artifactLayers(art *artifacts, xs []*index.Index, val map[string]float64) {
	for _, sh := range art.shards {
		for layer, path := range map[string]string{"index_mb": sh.index, "spheres_mb": sh.spheres, "sketch_mb": sh.sketch} {
			if st, err := os.Stat(path); err == nil {
				val[layer] += float64(st.Size()) / (1 << 20)
			}
		}
	}
	comps, worlds := 0, 0
	for _, x := range xs {
		val["index.memory_mb"] += float64(x.MemoryFootprint()) / (1 << 20)
		for w := 0; w < x.NumWorlds(); w++ {
			comps += x.NumComponents(w)
		}
		worlds += x.NumWorlds()
	}
	val["scc.components_per_world"] = ratio(float64(comps), float64(worlds))
}

// timeEstimators times, in this process, the library call behind every
// measured request of the schedule on the owning shard's artifacts, and
// reports the mean per request of each kind. It returns the total time of
// the calls whose key the schedule had not sent before — the compute a
// cache-missing daemon performs — in milliseconds.
func timeEstimators(ref *reference, s schedule, val map[string]float64) float64 {
	seen := map[string]bool{}
	for _, r := range s.warmup {
		seen[r.path()] = true
	}
	sums := map[kind]time.Duration{}
	counts := map[kind]int{}
	var missMS float64
	for _, r := range s.measured {
		d := timeCall(ref, r)
		sums[r.Kind] += d
		counts[r.Kind]++
		if p := r.path(); !seen[p] {
			seen[p] = true
			missMS += float64(d) / float64(time.Millisecond)
		}
	}
	per := func(k kind, unit time.Duration) float64 {
		if counts[k] == 0 {
			return 0
		}
		return float64(sums[k]) / float64(counts[k]) / float64(unit)
	}
	val["core.sphere_compute_ms"] = per(sphereCompute, time.Millisecond)
	val["cascade.spread_index_ms"] = per(spreadDense, time.Millisecond)
	val["sketch.estimate_spread_us"] = per(spreadSketch, time.Microsecond)
	val["sketch.estimate_sphere_us"] = per(sphereSketch, time.Microsecond)
	seeds := sums[seedsDense] + sums[seedsSketch]
	if n := counts[seedsDense] + counts[seedsSketch]; n > 0 {
		val["infmax.select_seeds_ms"] = float64(seeds) / float64(n) / float64(time.Millisecond)
	}
	return missMS
}

// timeCall runs the estimator one request needs on each shard it touches,
// exactly as soid does on a cache miss, and returns the time taken.
func timeCall(ref *reference, r request) time.Duration {
	start := time.Now()
	switch r.Kind {
	case sphereStore:
		// A store lookup is a slice index: nothing to time.
		return 0
	case sphereCompute:
		s, v, _ := ref.node(r.Node)
		core.ComputeWithScratch(s.x, v, core.Options{}, s.sc)
	case sphereSketch:
		s, v, _ := ref.node(r.Node)
		s.sk.EstimateSphereSize(v)
	case spreadDense, spreadSketch:
		parts, _ := ref.split(r.Seeds)
		for i, seeds := range parts {
			if len(seeds) == 0 {
				continue
			}
			s := ref.shards[i]
			if r.Kind == spreadSketch {
				s.sk.EstimateSpread(seeds)
			} else {
				cascade.SpreadFromIndex(s.x, seeds, s.sc)
			}
		}
	case seedsDense:
		for _, s := range ref.shards {
			infmax.TC(context.Background(), s.g, s.tc, r.K, infmax.TCOptions{})
		}
	case seedsSketch:
		for _, s := range ref.shards {
			infmax.SelectSeedsSketch(s.sk, r.K)
		}
	}
	return time.Since(start)
}

// traceDoc is the subset of a soi.trace/v1 document the attribution reads.
type traceDoc struct {
	DurationMS float64    `json:"duration_ms"`
	Spans      []spanJSON `json:"spans"`
}

type spanJSON struct {
	Name       string     `json:"name"`
	DurationMS float64    `json:"duration_ms"`
	Children   []spanJSON `json:"children"`
}

func (t *traceDoc) walk(f func(s *spanJSON)) {
	var rec func(ss []spanJSON)
	rec = func(ss []spanJSON) {
		for i := range ss {
			f(&ss[i])
			rec(ss[i].Children)
		}
	}
	rec(t.Spans)
}

// longest is the duration of the longest span with the given name.
func (t *traceDoc) longest(name string) float64 {
	best := 0.0
	t.walk(func(s *spanJSON) {
		if s.Name == name && s.DurationMS > best {
			best = s.DurationMS
		}
	})
	return best
}

// sum is the total duration of the spans with the given name.
func (t *traceDoc) sum(name string) float64 {
	total := 0.0
	t.walk(func(s *spanJSON) {
		if s.Name == name {
			total += s.DurationMS
		}
	})
	return total
}

// traceTree is one request's trace as the gateway and the shards it reached
// retained it.
type traceTree struct {
	gw     *traceDoc
	shards []*traceDoc
}

// tracesFetched bounds how many measured requests' traces are read back.
const tracesFetched = 400

// fetchTraces reads back the traces of an evenly spaced sample of the
// measured requests from every daemon's /debug/traces ring.
func fetchTraces(c *cluster, replies []reply) []traceTree {
	client := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	get := func(base, id string) *traceDoc {
		body, status, err := httpGet(client, base+"/debug/traces/"+id)
		if err != nil || status != http.StatusOK {
			return nil
		}
		var d traceDoc
		if json.Unmarshal(body, &d) != nil {
			return nil
		}
		return &d
	}
	step := len(replies)/tracesFetched + 1
	var out []traceTree
	for i := 0; i < len(replies); i += step {
		id := replies[i].traceID
		if id == "" {
			continue
		}
		t := traceTree{gw: get(c.base, id)}
		for _, base := range c.shardURLs {
			if d := get(base, id); d != nil {
				t.shards = append(t.shards, d)
			}
		}
		out = append(out, t)
	}
	return out
}

// traceBuild is the build half of the attribution run. It runs one pass of
// the offline pipeline through the binaries with -stats-json, checks that it
// wrote the same bytes as the pass that built the served artifacts (same code,
// same seed), verifies it as those were verified, and reads the build layers
// off the spans sphere reports. The calls sphere reports no span for —
// world sampling and the two saves — are timed here, on the served
// artifacts already loaded in ref; all figures are summed over both shards.
func traceBuild(opts options, art *artifacts, ref *reference, pop *population, o *outcome) error {
	dir := filepath.Join(opts.work, "trace-build")
	os.RemoveAll(dir)
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	defer os.RemoveAll(dir)
	prefix := filepath.Join(dir, "net")
	st, err := buildPass(opts.bin, art.source, prefix, servingSeed, filepath.Join(dir, "build.log"))
	if err != nil {
		o.problem("build pass: %v", err)
		return nil
	}
	fresh := artifactsAt(prefix)
	want, err := artifactDigests(art)
	if err != nil {
		return err
	}
	got, err := artifactDigests(fresh)
	if err != nil {
		return err
	}
	if !slices.Equal(want, got) {
		o.problem("a build pass with the serving seed wrote different artifacts than the one being served")
	}
	if _, err := verifyBuild(fresh, servingSeed, pop); err != nil {
		o.problem("verifying the build pass: %v", err)
	}

	val := o.values
	val["build.pass_s"] = st.wall.Seconds()
	val["build.rss_mb"] = float64(st.peakRSS) / (1 << 20)
	val["index.build_s"] = st.spans["index.build"]
	val["core.compute_all_s"] = st.spans["core.compute_all"]
	val["sketch.build_s"] = st.spans["sketch.build"]

	timed := func(layer string, f func() error) error {
		start := time.Now()
		err := f()
		val[layer] += time.Since(start).Seconds()
		return err
	}
	for i, s := range ref.shards {
		// sphere -shards samples shard i's worlds with seed+i.
		timed("worlds.sample_s", func() error {
			worlds.SampleMany(s.g, servingSeed+uint64(i), worldsPerShard)
			return nil
		})
		if err := timed("index.save_s", func() error {
			return s.x.SaveFile(filepath.Join(dir, fmt.Sprintf("saved%d.idx", i)))
		}); err != nil {
			return err
		}
		if err := timed("sketch.save_s", func() error {
			return s.sk.SaveFile(filepath.Join(dir, fmt.Sprintf("saved%d.skc", i)))
		}); err != nil {
			return err
		}
	}
	return nil
}
