package router

import (
	"context"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"soi/internal/api"
	"soi/internal/daemon"
	"soi/internal/telemetry"
	"soi/internal/trace"
)

// Config assembles a Router.
type Config struct {
	// Topology is the soi.topology/v1 manifest (required).
	Topology *Topology
	// Replicas lists, per shard (indexed by shard id), the base URLs of the
	// soid processes serving it, e.g. "http://host:port" (required, one
	// non-empty list per shard).
	Replicas [][]string
	// Client is the HTTP client for shard requests; nil selects a default
	// with sane connection pooling.
	Client *http.Client

	// MaxRetries is the number of re-sends after the first attempt of a
	// shard request (idempotent GETs only); 0 selects 2, negative disables.
	MaxRetries int
	// RetryBase is the exponential-backoff base; retry n sleeps a uniform
	// random duration in [0, RetryBase·2ⁿ] (full jitter). 0 selects 25ms.
	RetryBase time.Duration
	// HedgeDelay is the floor for the hedging delay. With at least two
	// replicas, a second request is fired on another replica once the first
	// has been outstanding for max(HedgeDelay, p90 of the replica's recent
	// latencies); first answer wins. 0 selects 30ms, negative disables
	// hedging.
	HedgeDelay time.Duration
	// BreakerFailures and BreakerCooldown parameterize per-replica circuit
	// breakers; zeros select 5 failures and 1s.
	BreakerFailures int
	BreakerCooldown time.Duration
	// ProbeInterval is the /readyz health-probe period; 0 selects 1s,
	// negative disables active probing. It also decides the response cache:
	// with probing on, up to daemon.DefaultCacheSize complete (200) answers
	// are kept, keyed on the query and the index fingerprints the replicas
	// last reported; with probing off nothing could retire an entry
	// computed from replaced artifacts, so nothing is cached.
	ProbeInterval time.Duration

	// Telemetry receives router metrics; nil disables instrumentation.
	Telemetry *telemetry.Registry
	// Tracer traces gateway requests (root span per request, child span per
	// shard leg); nil disables tracing.
	Tracer *trace.Tracer
	// RequestLog receives one JSONL record per gateway request; nil disables.
	RequestLog *trace.RequestLog
	// Seed seeds backoff jitter; 0 selects 1.
	Seed uint64
	// now is the clock (tests); nil selects time.Now.
	now func() time.Time
}

func (c Config) maxRetries() int {
	if c.MaxRetries == 0 {
		return 2
	}
	if c.MaxRetries < 0 {
		return 0
	}
	return c.MaxRetries
}

func (c Config) retryBase() time.Duration {
	if c.RetryBase <= 0 {
		return 25 * time.Millisecond
	}
	return c.RetryBase
}

func (c Config) hedgeDelay() (time.Duration, bool) {
	if c.HedgeDelay < 0 {
		return 0, false
	}
	if c.HedgeDelay == 0 {
		return 30 * time.Millisecond, true
	}
	return c.HedgeDelay, true
}

// cacheSize is the response cache's entry bound: the daemon default while
// probing runs, disabled (negative) when it does not.
func (c Config) cacheSize() int {
	if c.ProbeInterval < 0 {
		return -1
	}
	return daemon.DefaultCacheSize
}

// Router fans /v1 queries out to shard replicas and merges the answers.
// Create with New, then StartProbing to begin health probing; Close stops it.
type Router struct {
	cfg    Config
	topo   *Topology
	owner  map[int64]int // original node id -> shard
	shards [][]*replica
	client *http.Client
	now    func() time.Time

	rngMu sync.Mutex
	rng   *rand.Rand

	probeStop      chan struct{}
	probeDone      sync.WaitGroup
	probeOnceGuard sync.Once
	stopOnceGuard  sync.Once
	started        time.Time

	mux      *http.ServeMux
	env      *daemon.Envelope
	draining atomic.Bool

	// The response cache (env.Cache) keys answers with keySuffix: every
	// replica's last-reported index fingerprint, rebuilt under fpMu when a
	// probe reports a new one, so answers computed from replaced artifacts
	// stop matching within one probe interval.
	fpMu      sync.Mutex
	keySuffix atomic.Pointer[string]

	mRetries   *telemetry.Counter
	mHedges    *telemetry.Counter
	mHedgeWins *telemetry.Counter
	mShardErrs *telemetry.Counter
	mProbeFail *telemetry.Counter
	mShardLat  *telemetry.Histogram
	mHealthy   []*telemetry.Gauge
}

// New validates the topology/replica wiring and assembles the router.
func New(cfg Config) (*Router, error) {
	if cfg.Topology == nil {
		return nil, errors.New("router: Config.Topology is required")
	}
	if err := cfg.Topology.Validate(); err != nil {
		return nil, err
	}
	if len(cfg.Replicas) != len(cfg.Topology.Shards) {
		return nil, fmt.Errorf("router: %d replica groups for %d shards", len(cfg.Replicas), len(cfg.Topology.Shards))
	}
	client := cfg.Client
	if client == nil {
		client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 16}}
	}
	now := cfg.now
	if now == nil {
		now = time.Now
	}
	seed := cfg.Seed
	if seed == 0 {
		seed = 1
	}
	tel := cfg.Telemetry
	r := &Router{
		cfg:       cfg,
		topo:      cfg.Topology,
		owner:     cfg.Topology.OwnerMap(),
		client:    client,
		now:       now,
		rng:       rand.New(rand.NewSource(int64(seed))),
		probeStop: make(chan struct{}),
		started:   now(),

		mRetries:   tel.Counter("router.retries"),
		mHedges:    tel.Counter("router.hedges"),
		mHedgeWins: tel.Counter("router.hedge_wins"),
		mShardErrs: tel.Counter("router.shard_errors"),
		mProbeFail: tel.Counter("router.probe_failures"),
		mShardLat:  tel.Histogram("router.shard_latency_ns"),
	}
	for s, urls := range cfg.Replicas {
		if len(urls) == 0 {
			return nil, fmt.Errorf("router: shard %d has no replicas", s)
		}
		group := make([]*replica, len(urls))
		for i, u := range urls {
			rep := &replica{
				baseURL: u,
				shard:   s,
				breaker: NewBreaker(cfg.BreakerFailures, cfg.BreakerCooldown, now),
				lat:     newLatWindow(),
			}
			rep.healthy.Store(true) // optimistic until the first probe
			group[i] = rep
		}
		r.shards = append(r.shards, group)
		r.mHealthy = append(r.mHealthy, tel.Gauge(fmt.Sprintf("router.healthy.shard%d", s)))
		r.mHealthy[s].Set(int64(len(urls)))
	}
	r.keySuffix.Store(new(string))
	r.env = &daemon.Envelope{
		Service:    "soigw",
		Metrics:    tel,
		Prefix:     "router",
		Tracer:     cfg.Tracer,
		RequestLog: cfg.RequestLog,
		Draining:   &r.draining,
		DrainMsg:   "gateway is draining",
		Fail:       failEnvelope,
		Cache:      daemon.NewCache(cfg.cacheSize(), tel, "router"),
		KeySuffix:  func() string { return *r.keySuffix.Load() },
	}
	r.buildMux()
	return r, nil
}

// StartProbing launches the /readyz health probers (unless disabled by a
// negative ProbeInterval). Idempotent.
func (r *Router) StartProbing() {
	r.probeOnceGuard.Do(r.startProbing)
}

func (r *Router) startProbing() {
	if r.cfg.ProbeInterval < 0 {
		return
	}
	interval := r.cfg.ProbeInterval
	if interval == 0 {
		interval = time.Second
	}
	for _, group := range r.shards {
		for _, rep := range group {
			rep := rep
			r.probeDone.Add(1)
			go func() {
				defer r.probeDone.Done()
				t := time.NewTicker(interval)
				defer t.Stop()
				for {
					r.probeOnce(rep, interval)
					select {
					case <-r.probeStop:
						return
					case <-t.C:
					}
				}
			}()
		}
	}
}

// Close stops health probing. In-flight requests are unaffected. Idempotent.
func (r *Router) Close() {
	r.stopOnceGuard.Do(func() { close(r.probeStop) })
	r.probeDone.Wait()
}

func (r *Router) probeOnce(rep *replica, interval time.Duration) {
	timeout := interval
	if timeout > time.Second {
		timeout = time.Second
	}
	ctx, cancel := context.WithTimeout(context.Background(), timeout)
	defer cancel()
	indexFP, err := rep.probe(ctx, r.client, r.topo.Shards[rep.shard].GraphFingerprint)
	was := rep.healthy.Load()
	if err != nil {
		r.mProbeFail.Inc()
		rep.setProbeErr(err.Error())
		rep.healthy.Store(false)
	} else {
		rep.setProbeErr("")
		r.noteIndexFP(rep, indexFP)
		rep.healthy.Store(true)
	}
	if is := rep.healthy.Load(); is != was {
		delta := int64(-1)
		if is {
			delta = 1
		}
		r.mHealthy[rep.shard].Add(delta)
	}
}

// noteIndexFP records the index fingerprint rep reported and, when it
// changed, rebuilds the cache-key suffix: the replicas' fingerprints in
// shard order, "," between replicas and ";" between shards.
func (r *Router) noteIndexFP(rep *replica, fp string) {
	r.fpMu.Lock()
	defer r.fpMu.Unlock()
	if rep.indexFP == fp {
		return
	}
	rep.indexFP = fp
	var b strings.Builder
	for s, group := range r.shards {
		if s > 0 {
			b.WriteByte(';')
		}
		for i, rp := range group {
			if i > 0 {
				b.WriteByte(',')
			}
			b.WriteString(rp.indexFP)
		}
	}
	suffix := b.String()
	r.keySuffix.Store(&suffix)
}

// --- shard fetch: retries, hedging, breakers ------------------------------

// shardReply is the outcome of one shard's scatter leg.
type shardReply struct {
	Shard  int
	Status int    // HTTP status; 0 when Err is non-nil
	Body   []byte // response body (success or error envelope)
	Err    error  // transport-level failure after all retries
}

// ok reports whether the leg produced a mergeable (2xx) answer.
func (sr *shardReply) ok() bool {
	return sr.Err == nil && sr.Status >= 200 && sr.Status < 300
}

// clientError returns the leg's error envelope when the shard refused the
// request itself (a 4xx with a permanent code such as bad_request): every
// shard would refuse it the same way, so the gateway relays the refusal
// rather than counting a healthy shard as failed. Nil otherwise.
func (sr *shardReply) clientError() *api.Error {
	if sr.Err != nil || sr.Status < 400 || sr.Status >= 500 {
		return nil
	}
	if e := api.ParseError(sr.Status, sr.Body); e != nil && !api.RetryableCode(e.Code) {
		return e
	}
	return nil
}

// errBreakerOpen marks an attempt refused locally without touching the
// network (breaker open / no admissible replica).
var errBreakerOpen = errors.New("router: all replicas refused by circuit breaker")

// attemptOut is one HTTP attempt's result.
type attemptOut struct {
	status     int
	body       []byte
	retryAfter time.Duration
	err        error
}

// retryable classifies an attempt: network errors and envelope codes the
// server marked retryable are worth another attempt (on another replica);
// other statuses are the client's answer.
func (a *attemptOut) retryable() bool {
	if a.err != nil {
		return true
	}
	if a.status >= 200 && a.status < 300 {
		return false
	}
	if e := api.ParseError(a.status, a.body); e != nil {
		return api.RetryableCode(e.Code)
	}
	return a.status >= 500 // 5xx with no envelope: assume transient
}

// fetchShard performs one scatter leg with the full robustness stack:
// candidate ordering (healthy first), per-replica circuit breakers, hedging
// against a second replica, and bounded retries with full-jitter backoff.
// pathQ is the path+query to GET, e.g. "/v1/spread?seeds=1,2&budget=1s".
//
// The leg is one span of the request trace: retries, hedges, and breaker
// refusals/transitions land on it as events, and doGET propagates it
// downstream via traceparent so the shard's own spans parent under it.
func (r *Router) fetchShard(ctx context.Context, shard int, pathQ string) (out shardReply) {
	lctx, leg := trace.StartChild(ctx, "soigw.leg",
		trace.Int("shard", int64(shard)), trace.String("path", pathQ))
	if leg != nil {
		ctx = lctx
		defer func() {
			leg.SetHTTPStatus(out.Status)
			if out.Err != nil {
				leg.SetError(out.Err.Error())
			}
			leg.End()
		}()
	}
	var last attemptOut
	last.err = errBreakerOpen
	retries := r.cfg.maxRetries()
	for attempt := 0; ; attempt++ {
		if err := ctx.Err(); err != nil {
			return r.reply(shard, last, err)
		}
		primary, alt := r.pick(shard, attempt)
		if primary == nil {
			leg.Event("breaker_refused", trace.Int("attempt", int64(attempt)))
			last = attemptOut{err: errBreakerOpen}
		} else {
			last = r.hedgedAttempt(ctx, primary, alt, pathQ)
		}
		if !last.retryable() {
			return r.reply(shard, last, nil)
		}
		r.mShardErrs.Inc()
		if attempt >= retries {
			return r.reply(shard, last, nil)
		}
		r.mRetries.Inc()
		leg.Event("retry",
			trace.Int("attempt", int64(attempt+1)),
			trace.Int("prev_status", int64(last.status)),
			trace.Int("hint_ms", int64(last.retryAfter/time.Millisecond)))
		if !r.backoff(ctx, attempt, last.retryAfter) {
			return r.reply(shard, last, ctx.Err())
		}
	}
}

func (r *Router) reply(shard int, a attemptOut, ctxErr error) shardReply {
	if ctxErr != nil && a.err == nil && a.status == 0 {
		a.err = ctxErr
	}
	return shardReply{Shard: shard, Status: a.status, Body: a.body, Err: a.err}
}

// pick chooses the attempt's primary replica and (if any) a distinct hedge
// candidate: healthy replicas first, rotated by attempt so retries move to
// the next replica instead of hammering the same one.
func (r *Router) pick(shard, attempt int) (primary, alt *replica) {
	group := r.shards[shard]
	var healthy, unhealthy []*replica
	for _, rep := range group {
		if rep.healthy.Load() {
			healthy = append(healthy, rep)
		} else {
			unhealthy = append(unhealthy, rep)
		}
	}
	// Unhealthy replicas stay in the candidate list after the healthy ones:
	// probes lag reality, and a stale "unhealthy" beats refusing outright.
	ordered := append(healthy, unhealthy...)
	if len(ordered) == 0 {
		return nil, nil
	}
	primary = ordered[attempt%len(ordered)]
	if len(ordered) > 1 {
		alt = ordered[(attempt+1)%len(ordered)]
	}
	return primary, alt
}

// hedgedAttempt races primary against alt: alt is fired only after the
// hedging delay (latency-informed) elapses with no answer from primary. The
// first usable answer wins; the loser is canceled.
func (r *Router) hedgedAttempt(ctx context.Context, primary, alt *replica, pathQ string) attemptOut {
	delay, hedging := r.cfg.hedgeDelay()
	if !hedging || alt == nil {
		return r.tryReplica(ctx, primary, pathQ)
	}
	if p90, ok := primary.lat.Quantile(0.9); ok && p90 > delay {
		delay = p90
	}

	cctx, cancel := context.WithCancel(ctx)
	defer cancel()
	type legOut struct {
		out   attemptOut
		hedge bool
	}
	results := make(chan legOut, 2)
	launched := 1
	go func() { results <- legOut{out: r.tryReplica(cctx, primary, pathQ)} }()

	timer := time.NewTimer(delay)
	defer timer.Stop()
	failures := 0
	for {
		select {
		case leg := <-results:
			if !leg.out.retryable() {
				if leg.hedge {
					r.mHedgeWins.Inc()
					trace.FromContext(ctx).Event("hedge_win", trace.String("replica", alt.baseURL))
				}
				return leg.out
			}
			failures++
			if failures < launched {
				continue // the other leg is still in flight
			}
			return leg.out
		case <-timer.C:
			if launched == 1 {
				launched = 2
				r.mHedges.Inc()
				trace.FromContext(ctx).Event("hedge",
					trace.Int("delay_ms", int64(delay/time.Millisecond)),
					trace.String("replica", alt.baseURL))
				go func() { results <- legOut{out: r.tryReplica(cctx, alt, pathQ), hedge: true} }()
			}
		case <-cctx.Done():
			return attemptOut{err: cctx.Err()}
		}
	}
}

// tryReplica performs one GET against one replica, guarded by its breaker
// and feeding its latency window.
func (r *Router) tryReplica(ctx context.Context, rep *replica, pathQ string) attemptOut {
	sp := trace.FromContext(ctx)
	if !rep.breaker.Allow() {
		sp.Event("breaker_refused", trace.String("replica", rep.baseURL))
		return attemptOut{err: errBreakerOpen}
	}
	start := r.now()
	out := r.doGET(ctx, rep.baseURL+pathQ)
	elapsed := r.now().Sub(start)
	r.mShardLat.ObserveExemplar(elapsed.Nanoseconds(), sp.RequestID())
	// Breaker accounting: transport errors and retryable server states count
	// against the replica; application-level answers (2xx and permanent 4xx)
	// count for it.
	failure := out.err != nil || (out.status >= 500) ||
		(out.status != 0 && out.retryable())
	before := rep.breaker.State()
	rep.breaker.Report(!failure)
	if after := rep.breaker.State(); after != before {
		sp.Event("breaker_transition",
			trace.String("replica", rep.baseURL),
			trace.String("from", before.String()),
			trace.String("to", after.String()))
	}
	if !failure {
		rep.lat.Observe(elapsed)
	}
	return out
}

func (r *Router) doGET(ctx context.Context, url string) attemptOut {
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, url, nil)
	if err != nil {
		return attemptOut{err: err}
	}
	// Propagate the leg span downstream: the shard continues this trace with
	// the leg as the remote parent of its server span.
	trace.Inject(ctx, req.Header)
	resp, err := r.client.Do(req)
	if err != nil {
		return attemptOut{err: err}
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 64<<20))
	if err != nil {
		return attemptOut{err: err}
	}
	out := attemptOut{status: resp.StatusCode, body: body}
	if resp.StatusCode >= 400 {
		// Backoff hints arrive on two channels: the soi JSON envelope's
		// retry_after_ms and the standard Retry-After header (which is all a
		// proxy or non-soi backend in front of a shard can set). Honor
		// whichever asks for the longer wait.
		if e := api.ParseError(resp.StatusCode, body); e != nil && e.RetryAfter > 0 {
			out.retryAfter = e.RetryAfter
		}
		if h := parseRetryAfter(resp.Header.Get("Retry-After"), r.now()); h > out.retryAfter {
			out.retryAfter = h
		}
	}
	return out
}

// parseRetryAfter interprets an HTTP Retry-After value, which RFC 9110
// allows in two shapes: delta-seconds ("3") or an HTTP-date ("Mon, 02 Jan
// 2006 15:04:05 GMT", relative to now). Absent, unparseable, or
// already-past values yield 0 (no hint).
func parseRetryAfter(v string, now time.Time) time.Duration {
	v = strings.TrimSpace(v)
	if v == "" {
		return 0
	}
	if secs, err := strconv.Atoi(v); err == nil {
		if secs <= 0 {
			return 0
		}
		return time.Duration(secs) * time.Second
	}
	if t, err := http.ParseTime(v); err == nil {
		if d := t.Sub(now); d > 0 {
			return d
		}
	}
	return 0
}

// backoff sleeps the full-jitter exponential backoff for the given attempt
// (or the server's Retry-After hint if larger), bounded by ctx. Returns
// false when ctx expired instead.
func (r *Router) backoff(ctx context.Context, attempt int, hint time.Duration) bool {
	max := r.cfg.retryBase() << uint(attempt)
	if max > time.Second {
		max = time.Second
	}
	r.rngMu.Lock()
	d := time.Duration(r.rng.Int63n(int64(max) + 1))
	r.rngMu.Unlock()
	if hint > d {
		d = hint
	}
	if dl, ok := ctx.Deadline(); ok && r.now().Add(d).After(dl) {
		// No room to back off and still attempt: give the remaining time to
		// the attempt itself.
		d = 0
	}
	if d == 0 {
		return ctx.Err() == nil
	}
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case <-ctx.Done():
		return false
	case <-t.C:
		return true
	}
}

// scatter fans pathQ (built per shard) to every listed shard concurrently
// and gathers the replies, indexed by position in shards (never empty: every
// caller scatters to at least one owning shard). The last leg runs on the
// calling goroutine, so a single-shard scatter starts none.
func (r *Router) scatter(ctx context.Context, shards []int, pathQ func(shard int) string) []shardReply {
	out := make([]shardReply, len(shards))
	last := len(shards) - 1
	var wg sync.WaitGroup
	for i, s := range shards[:last] {
		i, s := i, s
		wg.Add(1)
		go func() {
			defer wg.Done()
			out[i] = r.fetchShard(ctx, s, pathQ(s))
		}()
	}
	out[last] = r.fetchShard(ctx, shards[last], pathQ(shards[last]))
	wg.Wait()
	return out
}
