package main

import (
	"context"
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"os"
	"slices"
	"time"

	"soi"
	"soi/internal/cascade"
	"soi/internal/core"
	"soi/internal/graph"
	"soi/internal/index"
	"soi/internal/infmax"
	"soi/internal/sketch"
)

// shardRef is one shard's artifacts loaded in-process, the reference the
// daemons' answers are checked against.
type shardRef struct {
	g       *graph.Graph
	orig    []int64
	dense   map[int64]graph.NodeID
	x       *index.Index
	spheres []core.Result
	tc      infmax.Spheres
	sk      *sketch.Sketch
	sc      *index.Scratch
}

func (s *shardRef) origIDs(vs []graph.NodeID) []int64 {
	out := make([]int64, len(vs))
	for i, v := range vs {
		out[i] = s.orig[v]
	}
	return out
}

// reference holds every shard plus the owner of each node id.
type reference struct {
	shards []*shardRef
	owner  map[int64]int
	// loadS is the in-process load time per layer, summed over shards.
	loadS map[string]float64
	seeds map[string]seedsRef
}

type seedsRef struct {
	seeds     []int64
	objective float64
	bound     float64
}

// loadReference opens the shard artifacts the way soid does; mmap selects
// index.OpenMmap instead of the eager index.LoadFile.
func loadReference(a *artifacts, mmap bool) (*reference, error) {
	ref := &reference{owner: map[int64]int{}, loadS: map[string]float64{}, seeds: map[string]seedsRef{}}
	timed := func(layer string, f func() error) error {
		start := time.Now()
		err := f()
		ref.loadS[layer] += time.Since(start).Seconds()
		return err
	}
	for i, files := range a.shards {
		s := &shardRef{}
		err := timed("graph.load_s", func() (err error) {
			s.g, s.orig, err = graph.LoadFile(files.graph)
			return err
		})
		if err != nil {
			return nil, err
		}
		err = timed("index.load_s", func() (err error) {
			if mmap {
				s.x, err = index.OpenMmap(files.index, s.g, index.MmapOptions{})
			} else {
				s.x, err = index.LoadFile(files.index, s.g)
			}
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d index: %w", i, err)
		}
		err = timed("core.spheres_load_s", func() (err error) {
			s.spheres, err = core.LoadSpheresFile(files.spheres)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d spheres: %w", i, err)
		}
		err = timed("sketch.load_s", func() (err error) {
			s.sk, err = sketch.LoadFile(files.sketch)
			return err
		})
		if err != nil {
			return nil, fmt.Errorf("shard %d sketch: %w", i, err)
		}
		if len(s.spheres) != s.g.NumNodes() || s.sk.Nodes() != s.g.NumNodes() {
			return nil, fmt.Errorf("shard %d: artifacts disagree on the node count", i)
		}
		if s.sk.IndexFingerprint() != s.x.Fingerprint() {
			return nil, fmt.Errorf("shard %d: sketch keyed to index %016x, index file is %016x",
				i, s.sk.IndexFingerprint(), s.x.Fingerprint())
		}
		s.dense = make(map[int64]graph.NodeID, len(s.orig))
		for v, id := range s.orig {
			s.dense[id] = graph.NodeID(v)
			ref.owner[id] = i
		}
		s.tc = make(infmax.Spheres, len(s.spheres))
		for v := range s.spheres {
			s.tc[v] = s.spheres[v].Set
		}
		s.sc = s.x.NewScratch()
		ref.shards = append(ref.shards, s)
	}
	return ref, nil
}

func (ref *reference) close() {
	for _, s := range ref.shards {
		if s.x.Lazy() {
			s.x.Close()
		}
	}
}

// node resolves an original id to its shard and dense id.
func (ref *reference) node(id int64) (*shardRef, graph.NodeID, error) {
	i, ok := ref.owner[id]
	if !ok {
		return nil, 0, fmt.Errorf("node %d is in no shard", id)
	}
	s := ref.shards[i]
	return s, s.dense[id], nil
}

// split groups original ids by owning shard, in shard order.
func (ref *reference) split(ids []int64) ([][]graph.NodeID, error) {
	out := make([][]graph.NodeID, len(ref.shards))
	for _, id := range ids {
		i, ok := ref.owner[id]
		if !ok {
			return nil, fmt.Errorf("node %d is in no shard", id)
		}
		out[i] = append(out[i], ref.shards[i].dense[id])
	}
	return out, nil
}

// spread sums the per-shard answers the gateway merges: dense expected
// spread over the worlds, or the sketch estimate with its Cohen bound.
func (ref *reference) spread(ids []int64, useSketch bool) (est, bound float64, err error) {
	parts, err := ref.split(ids)
	if err != nil {
		return 0, 0, err
	}
	for i, seeds := range parts {
		if len(seeds) == 0 {
			continue
		}
		s := ref.shards[i]
		if useSketch {
			e := s.sk.EstimateSpread(seeds)
			est += e
			bound += s.sk.ErrorBound(e)
		} else {
			est += cascade.SpreadFromIndex(s.x, seeds, s.sc)
		}
	}
	return est, bound, nil
}

// selectSeeds runs the per-shard greedy selection and merges the gain
// streams the way the gateway does: highest gain first, ties to the lower
// shard id, so the result equals single-node greedy on a clean partition.
func (ref *reference) selectSeeds(k int, useSketch bool) (seedsRef, error) {
	key := fmt.Sprintf("%d/%v", k, useSketch)
	if r, ok := ref.seeds[key]; ok {
		return r, nil
	}
	type stream struct {
		s   *shardRef
		sel infmax.Selection
		pos int
	}
	var streams []*stream
	var out seedsRef
	for _, s := range ref.shards {
		ks := k
		if n := s.g.NumNodes(); ks > n {
			ks = n
		}
		var sel infmax.Selection
		var err error
		if useSketch {
			sel, err = infmax.SelectSeedsSketch(s.sk, ks)
			out.bound += s.sk.ErrorBound(sel.Objective())
		} else {
			sel, err = infmax.TC(context.Background(), s.g, s.tc, ks, infmax.TCOptions{})
		}
		if err != nil {
			return out, err
		}
		streams = append(streams, &stream{s: s, sel: sel})
	}
	for len(out.seeds) < k {
		var best *stream
		for _, st := range streams {
			if st.pos < len(st.sel.Seeds) && (best == nil || st.sel.Gains[st.pos] > best.sel.Gains[best.pos]) {
				best = st
			}
		}
		if best == nil {
			break
		}
		out.seeds = append(out.seeds, best.s.orig[best.sel.Seeds[best.pos]])
		out.objective += best.sel.Gains[best.pos]
		best.pos++
	}
	ref.seeds[key] = out
	return out, nil
}

// answer is the union of the /v1 sphere, spread and seeds response fields
// the checks read.
type answer struct {
	Node          int64   `json:"node"`
	Sphere        []int64 `json:"sphere"`
	Size          int     `json:"size"`
	SampleCost    float64 `json:"sample_cost"`
	Estimator     string  `json:"estimator"`
	EstimatedSize float64 `json:"estimated_size"`
	Seeds         []int64 `json:"seeds"`
	Spread        float64 `json:"spread"`
	K             int     `json:"k"`
	Objective     float64 `json:"objective"`
	ErrorBound    float64 `json:"error_bound"`
	ShardsOK      int     `json:"shards_ok"`
	ShardsTotal   int     `json:"shards_total"`
	FailedShards  []int   `json:"failed_shards"`
}

// checked is the verdict on one reply.
type checked struct {
	degraded bool
	boundRel float64 // error_bound / estimate; 0 when the answer has no bound
	err      error
}

// check validates one reply: status 200 or 206, a body that parses and
// echoes the queried ids, and — for sketch answers always, for dense
// answers when full is set — agreement with the in-process reference.
// Every sketch answer must also lie within its own error_bound of the dense
// answer over the same worlds.
func (ref *reference) check(r request, rep reply, full bool) checked {
	if rep.err != nil {
		return checked{err: fmt.Errorf("%s: %v", r.path(), rep.err)}
	}
	if rep.status != http.StatusOK && rep.status != http.StatusPartialContent {
		return checked{err: fmt.Errorf("%s: status %d: %.200s", r.path(), rep.status, rep.body)}
	}
	var a answer
	if err := json.Unmarshal(rep.body, &a); err != nil {
		return checked{err: fmt.Errorf("%s: bad body: %v", r.path(), err)}
	}
	c := checked{degraded: rep.status == http.StatusPartialContent}
	if err := ref.compare(r, &a, full); err != nil {
		c.err = fmt.Errorf("%s: %v", r.path(), err)
	}
	var est float64
	switch r.Kind.endpoint() {
	case "sphere":
		est = a.EstimatedSize
	case "spread":
		est = a.Spread
	default:
		est = a.Objective
	}
	if a.ErrorBound > 0 && est > 0 {
		c.boundRel = a.ErrorBound / est
	}
	return c
}

func (ref *reference) compare(r request, a *answer, full bool) error {
	if len(a.FailedShards) > 0 {
		return fmt.Errorf("shards %v failed", a.FailedShards)
	}
	switch r.Kind {
	case sphereStore, sphereCompute, sphereSketch:
		if a.Node != r.Node {
			return fmt.Errorf("answer is for node %d", a.Node)
		}
		s, v, err := ref.node(r.Node)
		if err != nil {
			return err
		}
		if r.Kind == sphereSketch {
			if a.Estimator != "sketch" {
				return fmt.Errorf("estimator %q, want sketch", a.Estimator)
			}
			want := s.sk.EstimateSphereSize(v)
			if !near(a.EstimatedSize, want) || !near(a.ErrorBound, s.sk.ErrorBound(want)) {
				return fmt.Errorf("sketch size %v±%v, reference %v±%v", a.EstimatedSize, a.ErrorBound, want, s.sk.ErrorBound(want))
			}
			dense := cascade.SpreadFromIndex(s.x, []graph.NodeID{v}, s.sc)
			if math.Abs(a.EstimatedSize-dense) > a.ErrorBound+1e-9 {
				return fmt.Errorf("sketch size %v outside its bound %v of the dense %v", a.EstimatedSize, a.ErrorBound, dense)
			}
			return nil
		}
		if a.Size != len(a.Sphere) || !slices.Contains(a.Sphere, r.Node) {
			return fmt.Errorf("sphere of size %d with %d members does not hold its seed", a.Size, len(a.Sphere))
		}
		if !full {
			return nil
		}
		var want core.Result
		if r.Kind == sphereStore {
			want = s.spheres[v]
		} else {
			want = core.ComputeWithScratch(s.x, v, core.Options{}, s.sc)
		}
		if !slices.Equal(a.Sphere, s.origIDs(want.Set)) || !near(a.SampleCost, want.SampleCost) {
			return fmt.Errorf("sphere %v (cost %v), reference %v (cost %v)", a.Sphere, a.SampleCost, s.origIDs(want.Set), want.SampleCost)
		}
		return nil

	case spreadDense, spreadSketch:
		if !sameSet(a.Seeds, r.Seeds) {
			return fmt.Errorf("answer is for seeds %v", a.Seeds)
		}
		if a.ShardsOK != a.ShardsTotal {
			return fmt.Errorf("%d of %d shards answered", a.ShardsOK, a.ShardsTotal)
		}
		if r.Kind == spreadDense && !full {
			return nil
		}
		dense, _, err := ref.spread(r.Seeds, false)
		if err != nil {
			return err
		}
		if r.Kind == spreadDense {
			if !near(a.Spread, dense) {
				return fmt.Errorf("spread %v, reference %v", a.Spread, dense)
			}
			return nil
		}
		est, bound, err := ref.spread(r.Seeds, true)
		if err != nil {
			return err
		}
		if a.Estimator != "sketch" || !near(a.Spread, est) || !near(a.ErrorBound, bound) {
			return fmt.Errorf("sketch spread %v±%v (%q), reference %v±%v", a.Spread, a.ErrorBound, a.Estimator, est, bound)
		}
		if math.Abs(a.Spread-dense) > a.ErrorBound+1e-9 {
			return fmt.Errorf("sketch spread %v outside its bound %v of the dense %v", a.Spread, a.ErrorBound, dense)
		}
		return nil

	default:
		if a.K != r.K || len(a.Seeds) != r.K {
			return fmt.Errorf("k=%d with %d seeds", a.K, len(a.Seeds))
		}
		if a.ShardsOK != a.ShardsTotal {
			return fmt.Errorf("%d of %d shards answered", a.ShardsOK, a.ShardsTotal)
		}
		if !full && r.Kind == seedsDense {
			return nil
		}
		want, err := ref.selectSeeds(r.K, r.Kind == seedsSketch)
		if err != nil {
			return err
		}
		if !slices.Equal(a.Seeds, want.seeds) || !near(a.Objective, want.objective) {
			return fmt.Errorf("seeds %v (objective %v), reference %v (objective %v)", a.Seeds, a.Objective, want.seeds, want.objective)
		}
		if r.Kind == seedsSketch {
			if !near(a.ErrorBound, want.bound) {
				return fmt.Errorf("objective bound %v, reference %v", a.ErrorBound, want.bound)
			}
			dense, _, err := ref.spread(a.Seeds, false)
			if err != nil {
				return err
			}
			if math.Abs(a.Objective-dense) > a.ErrorBound+1e-9 {
				return fmt.Errorf("sketch objective %v outside its bound %v of the dense spread %v", a.Objective, a.ErrorBound, dense)
			}
		}
		return nil
	}
}

// near reports whether two floats agree to 1e-9 relative error (the
// gateway sums shard answers in the same order, so they normally match
// exactly).
func near(a, b float64) bool {
	return math.Abs(a-b) <= 1e-9*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func sameSet(a, b []int64) bool {
	x, y := slices.Clone(a), slices.Clone(b)
	slices.Sort(x)
	slices.Sort(y)
	return slices.Equal(x, y)
}

// verifyBuild opens a build pass's artifacts with index.OpenMmap and
// sketch.LoadFile, checks them against the topology manifest, and compares a
// seeded sample of stored spheres and sketch estimates with in-process
// recomputation. It returns the sample's median relative sketch bound, and
// an error for the first mismatch.
func verifyBuild(a *artifacts, seed uint64, pop *population) (float64, error) {
	ref, err := loadReference(a, true)
	if err != nil {
		return 0, fmt.Errorf("opening the built artifacts: %w", err)
	}
	defer ref.close()
	if err := checkTopology(a, ref); err != nil {
		return 0, err
	}
	k := newKeys(seed, "build-verify", pop)
	var rels []float64
	for i := 0; i < 200; i++ {
		id := k.freshNode()
		s, v, err := ref.node(id)
		if err != nil {
			return 0, err
		}
		want := core.ComputeWithScratch(s.x, v, core.Options{}, s.sc)
		got := s.spheres[v]
		if !slices.Equal(s.origIDs(got.Set), s.origIDs(want.Set)) || !near(got.SampleCost, want.SampleCost) {
			return 0, fmt.Errorf("node %d: stored sphere %v (cost %v), recomputed %v (cost %v)",
				id, s.origIDs(got.Set), got.SampleCost, s.origIDs(want.Set), want.SampleCost)
		}
		size := s.sk.EstimateSphereSize(v)
		bound := s.sk.ErrorBound(size)
		if dense := cascade.SpreadFromIndex(s.x, []graph.NodeID{v}, s.sc); math.Abs(size-dense) > bound+1e-9 {
			return 0, fmt.Errorf("node %d: sketch size %v outside its bound %v of the dense %v", id, size, bound, dense)
		}
		if bound > 0 && size > 0 {
			rels = append(rels, bound/size)
		}
	}
	return median(rels), nil
}

// topologyFile is the subset of the soi.topology/v1 manifest checked here.
type topologyFile struct {
	NumNodes int `json:"num_nodes"`
	CutEdges int `json:"cut_edges"`
	Shards   []struct {
		GraphFingerprint string `json:"graph_fingerprint"`
		NumNodes         int    `json:"num_nodes"`
	} `json:"shards"`
}

// checkTopology checks that the manifest describes two non-empty shards with
// no cut edges whose graph fingerprints match the shard files.
func checkTopology(a *artifacts, ref *reference) error {
	b, err := os.ReadFile(a.topology)
	if err != nil {
		return err
	}
	var t topologyFile
	if err := json.Unmarshal(b, &t); err != nil {
		return fmt.Errorf("topology: %v", err)
	}
	if len(t.Shards) != 2 || t.CutEdges != 0 {
		return fmt.Errorf("topology has %d shards and %d cut edges, want 2 and 0", len(t.Shards), t.CutEdges)
	}
	for i, s := range t.Shards {
		g := ref.shards[i].g
		if s.NumNodes == 0 || s.NumNodes != g.NumNodes() {
			return fmt.Errorf("topology shard %d has %d nodes, file has %d", i, s.NumNodes, g.NumNodes())
		}
		if fp := fmt.Sprintf("%016x", soi.Fingerprint(g)); fp != s.GraphFingerprint {
			return fmt.Errorf("topology shard %d graph fingerprint %s, file has %s", i, s.GraphFingerprint, fp)
		}
	}
	return nil
}
