package main

import (
	"bufio"
	"bytes"
	"fmt"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"time"

	"soi/internal/rng"
	"soi/internal/telemetry"
)

// conns is the generator's connection count to the gateway: no more than
// the CPUs the whole stack shares.
func conns() int {
	if n := nproc(); n < 2 {
		return n
	}
	return 2
}

// maxLate bounds how late the generator may dispatch a request; a run whose
// generator fell further behind measured the generator, not the system, and
// is reported as incorrect.
const maxLate = 250 * time.Millisecond

// setupLaunches is how many times a run launches the cluster; setup_s is
// the median launch time.
const setupLaunches = 5

// denseSample is the share of dense answers compared with the in-process
// reference (sketch answers are all compared).
const denseSample = 0.25

// phase is one fresh cluster driven through the warm-up and measured
// schedules.
type phase struct {
	setup    time.Duration
	warm     []reply
	measured []reply
	wall     time.Duration // measured phase, first due time to last reply
	cpu      time.Duration // daemons' CPU time over the measured phase
	stealPct float64       // share of the CPU time asked for that the host stole meanwhile
	peakRSS  int64         // bytes, summed VmHWM of the three daemons
	before   []metrics     // gateway, shard 0, shard 1 at the start of the measured phase
	after    []metrics     // the same at its end
	traces   []traceTree   // traced phases only
}

// runPhase launches a fresh cluster, sends the schedule, and records CPU,
// memory and /metrics around the measured phase. The cluster is stopped
// before it returns.
func runPhase(opts options, art *artifacts, s schedule, traced bool, launches int) (*phase, error) {
	ph := &phase{}
	var setups []float64
	var c *cluster
	for i := 0; i < launches; i++ {
		var err error
		var d time.Duration
		c, d, err = launchCluster(opts.bin, art, filepath.Join(opts.work, "run"), traced)
		if err != nil {
			return nil, err
		}
		setups = append(setups, d.Seconds())
		logf("cluster %d ready in %.3fs", i, d.Seconds())
		if i < launches-1 {
			c.stop()
		}
	}
	defer c.stop()
	ph.setup = time.Duration(median(setups) * float64(time.Second))

	client := newClient(conns())
	defer client.CloseIdleConnections()
	ph.warm = sendOpenLoop(client, c.base, s.warmup, conns())
	logf("warm-up done: %d requests", len(ph.warm))

	var err error
	if ph.before, err = scrapeAll(c); err != nil {
		return nil, err
	}
	cpu0, err := clusterCPU(c)
	if err != nil {
		return nil, err
	}
	host0, err := readHost()
	if err != nil {
		return nil, err
	}
	start := time.Now()
	ph.measured = sendOpenLoop(client, c.base, s.measured, conns())
	ph.wall = time.Since(start)
	cpu1, err := clusterCPU(c)
	if err != nil {
		return nil, err
	}
	host1, err := readHost()
	if err != nil {
		return nil, err
	}
	ph.cpu = cpu1 - cpu0
	ph.stealPct = host1.stealPct(host0)
	logf("measured phase done: %d requests in %.2fs", len(ph.measured), ph.wall.Seconds())
	if ph.after, err = scrapeAll(c); err != nil {
		return nil, err
	}
	for _, p := range c.procs() {
		rss, err := peakRSS(p.pid())
		if err != nil {
			return nil, err
		}
		ph.peakRSS += rss
	}
	if traced {
		ph.traces = fetchTraces(c, ph.measured)
	}
	return ph, nil
}

// runServing runs one serving workload: a measured phase on fresh daemons
// with tracing off, or with --trace the attribution run (see traceServing).
func runServing(opts options, w *workload) (*outcome, error) {
	art, fp, err := servingArtifacts(opts)
	if err != nil {
		return nil, err
	}
	o := &outcome{values: map[string]float64{}, graphFP: fp}
	g, err := makeGraph(benchGraphSpec, graphSeed)
	if err != nil {
		return nil, err
	}
	pop := newPopulation(g, benchGraphSpec.NodesPerCopy)
	if opts.trace {
		// The traced run sends its schedule twice; each measured phase is
		// half as long, so together they last as long as an untraced one.
		return o, traceServing(opts, art, buildSchedule(w, opts.seed, max(opts.seconds/2, 2), pop), pop, o)
	}
	sched := buildSchedule(w, opts.seed, opts.seconds, pop)

	// Set-up is measured over setupLaunches launches, each loading every
	// artifact; the last cluster serves the measured phase.
	ph, err := runPhase(opts, art, sched, false, setupLaunches)
	if err != nil {
		return nil, err
	}
	ref, err := loadReference(art, false)
	if err != nil {
		return nil, err
	}
	v := verifyPhase(ref, sched, ph, opts.seed, o)
	logf("verified %d replies", len(ph.warm)+len(ph.measured))
	size, err := art.bytes()
	if err != nil {
		return nil, err
	}
	o.values["setup_s"] = ph.setup.Seconds()
	o.values["p50_ms"] = quantile(v.latencyMS, 0.5)
	o.values["loadgen.p90_ms"] = quantile(v.latencyMS, 0.9)
	o.values["loadgen.sent"] = float64(len(ph.measured))
	o.values["loadgen.degraded"] = float64(v.degraded)
	o.values["cpu_ms_per_req"] = float64(ph.cpu) / float64(time.Millisecond) / float64(len(ph.measured))
	o.stealPct = ph.stealPct
	o.values["serve_rss_mb"] = float64(ph.peakRSS) / (1 << 20)
	o.values["ok_ratio"] = float64(v.ok) / float64(len(ph.measured))
	o.values["artifact_mb"] = float64(size) / (1 << 20)
	return o, nil
}

// verified summarizes the checks over one phase.
type verified struct {
	latencyMS []float64 // measured replies
	ok        int       // measured 200s that passed every check
	degraded  int       // measured 206s that passed every check
	boundRel  []float64
	bytes     int64
	maxLate   time.Duration
}

// verifyPhase checks every reply of the warm-up and the measured phase and
// counts the measured ones on o: attempted, failed (transport error, a
// status other than 200/206, or a mismatch), degraded.
func verifyPhase(ref *reference, s schedule, ph *phase, seed uint64, o *outcome) verified {
	var v verified
	pick := rng.NewStream(seed, 0x5eed)
	shown := 0
	report := func(err error) {
		if shown < 5 {
			o.problem("%v", err)
		} else if shown == 5 {
			o.problem("further mismatches not shown")
		}
		shown++
	}
	for i, rep := range ph.warm {
		if c := ref.check(s.warmup[i], rep, false); c.err != nil {
			report(fmt.Errorf("warm-up: %w", c.err))
		}
	}
	for i, rep := range ph.measured {
		r := s.measured[i]
		full := pick.Float64() < denseSample
		c := ref.check(r, rep, full)
		o.attempted++
		v.latencyMS = append(v.latencyMS, float64(rep.latency)/float64(time.Millisecond))
		v.bytes += int64(len(rep.body))
		if rep.late > v.maxLate {
			v.maxLate = rep.late
		}
		switch {
		case c.err != nil:
			o.failed++
			report(c.err)
		case c.degraded:
			v.degraded++
		default:
			v.ok++
		}
		if c.boundRel > 0 {
			v.boundRel = append(v.boundRel, c.boundRel)
		}
	}
	if v.maxLate > maxLate {
		o.problem("the generator dispatched a request %v late (bound %v): the run measured the generator", v.maxLate, maxLate)
	}
	return v
}

// metrics is one scrape of a daemon's Prometheus /metrics: series (with
// labels) to value.
type metrics map[string]float64

func scrape(base string) (metrics, error) {
	client := &http.Client{Transport: &http.Transport{Proxy: nil}, Timeout: 5 * time.Second}
	defer client.CloseIdleConnections()
	body, status, err := httpGet(client, base+"/metrics")
	if err != nil {
		return nil, err
	}
	if status != http.StatusOK {
		return nil, fmt.Errorf("%s/metrics: status %d", base, status)
	}
	m := metrics{}
	sc := bufio.NewScanner(bytes.NewReader(body))
	for sc.Scan() {
		line := sc.Text()
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if i < 0 {
			continue
		}
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			m[line[:i]] = v
		}
	}
	return m, sc.Err()
}

// scrapeAll scrapes the gateway and both shards, in that order.
func scrapeAll(c *cluster) ([]metrics, error) {
	var out []metrics
	for _, base := range append([]string{c.base}, c.shardURLs...) {
		m, err := scrape(base)
		if err != nil {
			return nil, err
		}
		out = append(out, m)
	}
	return out, nil
}

// counterDelta is a series' increase between two scrapes, summed over the
// given daemons.
func counterDelta(before, after []metrics, series string, daemons ...int) float64 {
	sum := 0.0
	for _, d := range daemons {
		sum += after[d][series] - before[d][series]
	}
	return sum
}

// histDelta rebuilds the histogram of the observations a series gained
// between two scrapes, summed over the given daemons, so its quantiles
// describe the measured phase alone.
func histDelta(before, after []metrics, name string, daemons ...int) telemetry.HistogramSnapshot {
	var h telemetry.HistogramSnapshot
	for _, d := range daemons {
		was := cumBuckets(before[d], name)
		var own telemetry.HistogramSnapshot
		prev := int64(0)
		for _, b := range cumBuckets(after[d], name) {
			gained := b.Count - cumAt(was, b.Le)
			if n := gained - prev; n > 0 {
				own.Buckets = append(own.Buckets, telemetry.Bucket{Le: b.Le, Count: n})
			}
			prev = gained
		}
		h = mergeHist(h, own)
	}
	h.Count = int64(counterDelta(before, after, name+"_count", daemons...))
	h.Sum = int64(counterDelta(before, after, name+"_sum", daemons...))
	return h
}

// cumBuckets reads a histogram's cumulative le buckets from one scrape, in
// ascending le. The exposition lists only buckets that hold an observation.
func cumBuckets(m metrics, name string) []telemetry.Bucket {
	prefix := name + `_bucket{le="`
	var out []telemetry.Bucket
	for series, v := range m {
		if !strings.HasPrefix(series, prefix) {
			continue
		}
		le, err := strconv.ParseInt(strings.TrimSuffix(series[len(prefix):], `"}`), 10, 64)
		if err != nil {
			continue // +Inf
		}
		out = append(out, telemetry.Bucket{Le: le, Count: int64(v)})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Le < out[j].Le })
	return out
}

// cumAt is the cumulative count at le of a scrape's buckets. A bucket the
// scrape leaves out was empty, so the count is that of the largest listed
// bucket at or below le.
func cumAt(bs []telemetry.Bucket, le int64) int64 {
	n := int64(0)
	for _, b := range bs {
		if b.Le > le {
			break
		}
		n = b.Count
	}
	return n
}
