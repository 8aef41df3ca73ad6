package main

import (
	"bytes"
	"fmt"
	"hash/fnv"
	"math"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"soi/internal/graph"
	"soi/internal/rng"
)

// kind is one request type of the mixes.
type kind int

const (
	sphereStore   kind = iota // /v1/sphere/{n}: precomputed sphere store
	sphereCompute             // /v1/sphere/{n}?source=compute: typical cascade over the worlds
	sphereSketch              // /v1/sphere/{n}?estimator=sketch
	spreadDense               // /v1/spread: expected spread over the worlds
	spreadSketch              // /v1/spread?estimator=sketch
	seedsDense                // /v1/seeds: InfMax_TC over the sphere store
	seedsSketch               // /v1/seeds?estimator=sketch: SKIM-style greedy
)

func (k kind) endpoint() string {
	switch k {
	case sphereStore, sphereCompute, sphereSketch:
		return "sphere"
	case spreadDense, spreadSketch:
		return "spread"
	}
	return "seeds"
}

func (k kind) sketch() bool { return k == sphereSketch || k == spreadSketch || k == seedsSketch }

// request is one scheduled request. The daemons see only its URL.
type request struct {
	Due   time.Duration // send time, from the start of its phase
	Kind  kind
	Node  int64   // sphere queries
	Seeds []int64 // spread queries
	K     int     // seeds queries
}

func (r request) path() string {
	est := ""
	if r.Kind.sketch() {
		est = "estimator=sketch"
	}
	switch r.Kind {
	case sphereStore:
		return fmt.Sprintf("/v1/sphere/%d", r.Node)
	case sphereCompute:
		return fmt.Sprintf("/v1/sphere/%d?source=compute&samples=0", r.Node)
	case sphereSketch:
		return fmt.Sprintf("/v1/sphere/%d?%s", r.Node, est)
	case spreadDense, spreadSketch:
		ids := make([]string, len(r.Seeds))
		for i, s := range r.Seeds {
			ids[i] = strconv.FormatInt(s, 10)
		}
		p := "/v1/spread?seeds=" + strings.Join(ids, ",")
		if est != "" {
			p += "&" + est
		}
		return p
	default:
		p := fmt.Sprintf("/v1/seeds?k=%d", r.K)
		if est != "" {
			p += "&" + est
		}
		return p
	}
}

// workload is a serving traffic mix at a fixed offered rate.
type workload struct {
	name   string
	rate   float64       // requests per second, below the knee on 2 cores
	warmup time.Duration // untimed phase before measuring
	// mix holds each request kind as often as its share: every len(mix)
	// consecutive requests are a seeded shuffle of it, so the mix is exact
	// in every run instead of varying with the seed.
	mix []kind
	// hot draws nodes by Zipf popularity; otherwise every node is fresh.
	hot bool
}

// deck repeats each kind by its weight.
func deck(weights map[kind]int) []kind {
	var out []kind
	for k := sphereStore; k <= seedsSketch; k++ {
		for i := 0; i < weights[k]; i++ {
			out = append(out, k)
		}
	}
	return out
}

var workloads = map[string]*workload{
	// Zipf popularity over both shards: after the warm-up most keys hit
	// soid's result cache, so the router, the cache and HTTP/JSON do the
	// work and the estimators do little.
	"hot-zipf": {name: "hot-zipf", rate: 200, warmup: 5 * time.Second, hot: true, mix: deck(map[kind]int{
		sphereStore: 7, spreadDense: 5, seedsDense: 2, spreadSketch: 3, sphereSketch: 2, seedsSketch: 1,
	})},
	// Uniform nodes whose keys never repeat: the cache misses, and the
	// dense per-world compute (core, cascade) dominates.
	"cold-dense": {name: "cold-dense", rate: 120, warmup: 5 * time.Second, mix: deck(map[kind]int{
		sphereCompute: 1, spreadDense: 1,
	})},
	// The same uniform key stream answered from the sketches: estimation
	// costs microseconds, so fan-out, the network leg, JSON and the bound
	// merge dominate.
	"cold-sketch": {name: "cold-sketch", rate: 150, warmup: 5 * time.Second, mix: deck(map[kind]int{
		sphereSketch: 1, spreadSketch: 1,
	})},
}

// draw fills in the nodes of one request of the given kind.
func (w *workload) draw(k *keys, kd kind) request {
	r := request{Kind: kd}
	switch kd.endpoint() {
	case "sphere":
		if w.hot {
			r.Node = k.zipf()
		} else {
			r.Node = k.freshNode()
		}
	case "spread":
		if w.hot {
			r.Seeds = k.zipfSet()
		} else {
			r.Seeds = k.freshSet()
		}
	default:
		r.K = 1 + k.r.Intn(5)
	}
	return r
}

func workloadNames() []string {
	var names []string
	for n := range workloads {
		names = append(names, n)
	}
	sort.Strings(names)
	return names
}

// population groups each graph copy's nodes into strata of similar
// expected query cost, so that every schedule draws the same number of
// nodes from every stratum. A cold stream then holds the same mix of cheap
// and expensive nodes whatever its seed: the per-node cost of a typical
// cascade is heavy-tailed (a few hubs cost a hundred times the median), and
// a plain random sample of a few thousand nodes would move the mean cost
// per request by several percent from seed to seed.
type population struct {
	n      int          // nodes per graph copy; copy c holds ids c*n .. c*n+n-1
	strata [2][][]int64 // per copy, strata in ascending cost proxy
}

// stratumSize is the least number of nodes per stratum.
const stratumSize = 48

// newPopulation stratifies g's nodes by a cost proxy read off the graph
// alone: the expected number of nodes a cascade from the node reaches within
// two hops.
func newPopulation(g *graph.Graph, n int) *population {
	reach := func(v graph.NodeID) float64 {
		nbrs, probs := g.Neighbors(v)
		r := 1.0
		for i, u := range nbrs {
			_, probs2 := g.Neighbors(u)
			r2 := 1.0
			for _, p := range probs2 {
				r2 += p
			}
			r += probs[i] * r2
		}
		return r
	}
	p := &population{n: n}
	for c := 0; c < 2; c++ {
		ids := make([]int64, n)
		cost := make([]float64, n)
		for i := range ids {
			ids[i] = int64(c*n + i)
			cost[i] = reach(graph.NodeID(ids[i]))
		}
		sort.SliceStable(ids, func(a, b int) bool { return cost[ids[a]-int64(c*n)] < cost[ids[b]-int64(c*n)] })
		num := max(n/stratumSize, 1)
		for s := 0; s < num; s++ {
			p.strata[c] = append(p.strata[c], ids[s*n/num:(s+1)*n/num])
		}
	}
	return p
}

// keys draws node ids for one schedule.
type keys struct {
	r        *rng.PCG32
	zipfCDF  []float64     // cumulative popularity by rank
	zipfNode []int64       // rank -> node id
	streams  [2]stratified // sphere nodes and spread seeds draw from disjoint halves
}

// stratified draws unused nodes of each graph copy round-robin over the
// strata, in a seeded order, so that any prefix covers them evenly.
type stratified struct {
	strata [2][][]int64
	order  [2][]int // stratum visiting order per copy
	turn   [2]int   // draws so far per copy
	used   [2][]int // draws so far per stratum
}

// zipfExponent is the popularity skew of hot-zipf (s in P(rank) ∝ rank^-s).
const zipfExponent = 1.1

func newKeys(seed uint64, name string, pop *population) *keys {
	h := fnv.New64a()
	h.Write([]byte(name))
	k := &keys{r: rng.NewStream(seed, h.Sum64())}
	total := 2 * pop.n
	k.zipfCDF = make([]float64, total)
	sum := 0.0
	for i := range k.zipfCDF {
		sum += math.Pow(float64(i+1), -zipfExponent)
		k.zipfCDF[i] = sum
	}
	for i := range k.zipfCDF {
		k.zipfCDF[i] /= sum
	}
	k.zipfNode = make([]int64, total)
	for i, v := range k.r.Perm(total) {
		k.zipfNode[i] = int64(v)
	}
	for c := 0; c < 2; c++ {
		for _, st := range pop.strata[c] {
			shuffled := make([]int64, len(st))
			for i, j := range k.r.Perm(len(st)) {
				shuffled[i] = st[j]
			}
			half := len(shuffled) / 2
			k.streams[0].strata[c] = append(k.streams[0].strata[c], shuffled[:half])
			k.streams[1].strata[c] = append(k.streams[1].strata[c], shuffled[half:])
		}
		for s := range k.streams {
			k.streams[s].order[c] = k.r.Perm(len(pop.strata[c]))
			k.streams[s].used[c] = make([]int, len(pop.strata[c]))
		}
	}
	return k
}

func (k *keys) zipf() int64 {
	i := sort.SearchFloat64s(k.zipfCDF, k.r.Float64())
	if i >= len(k.zipfNode) {
		i = len(k.zipfNode) - 1
	}
	return k.zipfNode[i]
}

// zipfSet draws 1-3 distinct popular seeds (60% / 30% / 10%).
func (k *keys) zipfSet() []int64 {
	size := 1
	switch u := k.r.Float64(); {
	case u >= 0.9:
		size = 3
	case u >= 0.6:
		size = 2
	}
	var out []int64
	for len(out) < size {
		v := k.zipf()
		if !slices.Contains(out, v) {
			out = append(out, v)
		}
	}
	return out
}

// next returns a node of graph copy c that this stream has not used yet. A
// stratum is reused only after all of its nodes were drawn, long after the
// daemons' 4096-entry cache evicted them.
func (st *stratified) next(c int) int64 {
	s := st.order[c][st.turn[c]%len(st.order[c])]
	st.turn[c]++
	nodes := st.strata[c][s]
	v := nodes[st.used[c][s]%len(nodes)]
	st.used[c][s]++
	return v
}

// freshNode returns an unused sphere query node, alternating between the
// graph copies.
func (k *keys) freshNode() int64 {
	sp := &k.streams[0]
	return sp.next((sp.turn[0] + sp.turn[1]) % 2)
}

// freshSet draws 2-4 unused seeds with at least one on each shard.
func (k *keys) freshSet() []int64 {
	size := 2 + k.r.Intn(3)
	sp := &k.streams[1]
	out := []int64{sp.next(0), sp.next(1)}
	for len(out) < size {
		out = append(out, sp.next(k.r.Intn(2)))
	}
	return out
}

// schedule is a workload's complete request list: an untimed warm-up and
// the measured phase, both at the workload's fixed rate.
type schedule struct {
	warmup, measured []request
}

// buildSchedule derives the whole schedule from the seed before any request
// is sent. The same seed gives a byte-identical schedule.
func buildSchedule(w *workload, seed uint64, seconds int, pop *population) schedule {
	k := newKeys(seed, w.name, pop)
	gap := time.Duration(float64(time.Second) / w.rate)
	mix := append([]kind(nil), w.mix...)
	drawn := 0
	phase := func(d time.Duration) []request {
		n := int(d / gap)
		out := make([]request, n)
		for i := range out {
			if drawn%len(mix) == 0 {
				k.r.Shuffle(len(mix), func(a, b int) { mix[a], mix[b] = mix[b], mix[a] })
			}
			out[i] = w.draw(k, mix[drawn%len(mix)])
			out[i].Due = time.Duration(i) * gap
			drawn++
		}
		return out
	}
	return schedule{warmup: phase(w.warmup), measured: phase(time.Duration(seconds) * time.Second)}
}

// encode renders the schedule one request per line: phase, due time in
// nanoseconds, URL.
func (s schedule) encode() []byte {
	var b bytes.Buffer
	for _, p := range []struct {
		name string
		reqs []request
	}{{"warmup", s.warmup}, {"measured", s.measured}} {
		for _, r := range p.reqs {
			fmt.Fprintf(&b, "%s\t%d\t%s\n", p.name, r.Due.Nanoseconds(), r.path())
		}
	}
	return b.Bytes()
}
