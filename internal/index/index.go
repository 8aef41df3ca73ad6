// Package index implements the cascade index of the paper (§4, Algorithm 1).
//
// The index stores, for each of ℓ sampled possible worlds G_1..G_ℓ:
//
//  1. the condensation of G_i's strongly connected components, optionally
//     transitively reduced to save space, and
//  2. for every vertex v, the identifier of v's component in G_i.
//
// Every vertex in an SCC has the same reachability set, so the cascade of v
// in G_i is recovered by walking the condensation from v's component and
// unioning the member lists of the reached components — time linear in the
// output plus the condensation edges visited, independent of |E(G_i)|.
package index

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"sync"
	"time"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/jaccard"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/scc"
	"soi/internal/telemetry"
	"soi/internal/worlds"
)

// Model selects the propagation model whose live-edge distribution the
// index samples.
type Model int

const (
	// IC is the Independent Cascade model: every edge survives
	// independently with its probability.
	IC Model = iota
	// LT is the Linear Threshold model: every node keeps at most one
	// incoming edge, chosen with probability equal to its weight (the
	// Kempe et al. live-edge equivalence). Edge weights must satisfy the
	// per-node budget Σ_in <= 1; Build validates this.
	LT
)

// Options configures index construction.
type Options struct {
	// Samples is ℓ, the number of possible worlds to index. The paper's
	// experiments use 1000; Theorem 2 shows O(log(1/α)/α²) suffices for a
	// (1+O(α)) approximation.
	Samples int
	// Seed drives the deterministic sampling of worlds.
	Seed uint64
	// Workers bounds build parallelism; zero and negative values both mean
	// GOMAXPROCS (the convention shared by every Workers knob in this
	// library).
	Workers int
	// Progress, if non-nil, is called after each world is indexed with
	// (done, total). Calls are serialized.
	Progress func(done, total int)
	// TransitiveReduction applies the Aho–Garey–Ullman reduction to each
	// condensation (the paper's space optimization). Costs build time,
	// saves index space and query edge traversals.
	TransitiveReduction bool
	// MaxExactReduction is the component threshold for the exact reduction
	// (see scc.Reduce); 0 selects the default.
	MaxExactReduction int
	// Model selects IC (default) or LT live-edge sampling.
	Model Model
	// Telemetry, if non-nil, receives build metrics (worlds sampled, SCC
	// condensation sizes, per-world build timings, pool utilization) and an
	// "index.build" phase span. The registry is retained on the built Index
	// so query-time consumers (greedy selection) meter against it too.
	Telemetry *telemetry.Registry
}

// worldEntry is the per-world part of the index: the node -> component map
// and the (reduced) condensation, both held as flat CSR arrays so a world is
// five allocations whatever its component count. Component ids are
// reverse-topological (every successor id is below its source's).
type worldEntry struct {
	comp      []int32 // node -> component id
	memberOff []int32 // members of component c: members[memberOff[c]:memberOff[c+1]]
	members   []int32
	succOff   []int32 // successors of component c: succ[succOff[c]:succOff[c+1]]
	succ      []int32
}

// numComps returns the world's component count.
func (e *worldEntry) numComps() int { return len(e.succOff) - 1 }

// succs returns the condensation successors of component c.
func (e *worldEntry) succs(c int32) []int32 { return e.succ[e.succOff[c]:e.succOff[c+1]] }

// Index is the cascade index. It is immutable after Build and safe for
// concurrent queries, provided each goroutine uses its own Scratch.
//
// An index is backed either by eagerly decoded entries (Build, Read) or by
// a lazy block window (OpenMmap), which faults worlds in on first touch and
// may quarantine corrupt ones. Query methods treat a quarantined world as
// contributing nothing — estimator denominators use LiveWorlds, and sample
// collections skip it — so corruption shrinks the sample instead of
// skewing it.
type Index struct {
	g       *graph.Graph
	entries []worldEntry // eager backing (empty when lazy != nil)
	lazy    *lazyWorlds  // page-on-demand backing (OpenMmap)
	tel     *telemetry.Registry

	fpOnce sync.Once
	fp     uint64
}

// world returns world i's entry, faulting it in for a lazy index; nil means
// the world is quarantined and must contribute nothing.
func (x *Index) world(i int) *worldEntry {
	if x.lazy != nil {
		return x.lazy.world(i)
	}
	return &x.entries[i]
}

// SetTelemetry attaches a registry to an index (typically one loaded from
// disk, which has none) so greedy selection over it can be metered.
func (x *Index) SetTelemetry(reg *telemetry.Registry) { x.tel = reg }

// Telemetry returns the registry attached at build or SetTelemetry time;
// nil means unmetered.
func (x *Index) Telemetry() *telemetry.Registry { return x.tel }

// Build samples opts.Samples possible worlds of g and indexes them. Worker
// goroutines check ctx between worlds, so a canceled or expired context
// makes Build return ctx.Err() promptly instead of finishing all ℓ worlds;
// a panic in a worker is recovered and returned as a *pool.PanicError
// rather than crashing the process.
//
// cfg puts the build under the crash-safe execution layer; its zero value
// is the plain build. With cfg.Path set, completed worlds are periodically
// checkpointed (atomically, off the worker hot path), so a crash, OOM-kill,
// cancellation, or deadline loses at most one flush interval of work. A
// rerun with the same graph, options, and checkpoint path resumes from the
// bitmap of completed worlds and — because world i depends only on its own
// split generator — produces an index bit-identical to an uninterrupted
// build. The checkpoint is deleted only when every world completes.
//
// With cfg.Budget.Deadline set, the build stops sampling when the deadline
// nears and returns a partial index over the completed worlds together with
// a *checkpoint.PartialError (errors.Is(err, checkpoint.ErrPartial)).
func Build(ctx context.Context, g *graph.Graph, opts Options, cfg checkpoint.Config) (*Index, error) {
	if opts.Samples < 1 {
		return nil, fmt.Errorf("index: Samples must be >= 1, got %d", opts.Samples)
	}
	if opts.Model == LT {
		if err := worlds.ValidateLTWeights(g); err != nil {
			return nil, err
		}
		// Warm the transpose once; SampleLT uses it and Reverse memoizes
		// without synchronization.
		g.Reverse()
	}
	// The registry can arrive on either options struct; the checkpoint Config
	// is how cliutil threads it in.
	if opts.Telemetry == nil {
		opts.Telemetry = cfg.Telemetry
	}

	idx := &Index{g: g, entries: make([]worldEntry, opts.Samples), tel: opts.Telemetry}
	r, st, err := checkpoint.Start(cfg, func() uint64 { return BuildFingerprint(g, opts) },
		opts.Samples, idx.encodeWorlds)
	if err != nil {
		return nil, err
	}
	var resumed *checkpoint.Bitmap // nil: nothing resumed
	if st != nil {
		if err := decodeBuildPayload(st, uint32(g.NumNodes()), idx.entries); err != nil {
			r.Abort()
			return nil, err
		}
		resumed = st.Done
	}

	master := rng.New(opts.Seed)
	// Pre-split generators so world i is reproducible regardless of the
	// worker that processes it.
	gens := make([]*rng.PCG32, opts.Samples)
	for i := range gens {
		gens[i] = master.Split(uint64(i))
	}
	bm := newBuildMetrics(opts.Telemetry)
	sp := opts.Telemetry.StartSpan("index.build")
	runErr := pool.Run(ctx, opts.Samples,
		pool.Options{Workers: opts.Workers, Progress: opts.Progress, Telemetry: opts.Telemetry},
		func(_, i int) error {
			if resumed.Get(i) {
				return nil
			}
			if err := r.Gate(); err != nil {
				return err
			}
			idx.entries[i] = buildEntry(g, gens[i], opts, bm)
			sp.AddUnits(1)
			r.MarkDone(i)
			return nil
		})
	sp.End()
	if err := r.Settle(runErr); err != nil {
		if !errors.Is(err, checkpoint.ErrPartial) {
			return nil, err
		}
		return idx.compact(r.Snapshot()), err
	}
	return idx, nil
}

// buildMetrics carries per-world build instrumentation. The zero value
// (all-nil handles) is the disabled state.
type buildMetrics struct {
	wm    *worlds.Metrics
	comps *telemetry.Histogram // index.components: condensation sizes
	nanos *telemetry.Histogram // index.world_build_ns: per-world build time
}

func newBuildMetrics(tel *telemetry.Registry) buildMetrics {
	return buildMetrics{
		wm:    worlds.NewMetrics(tel),
		comps: tel.Histogram("index.components"),
		nanos: tel.Histogram("index.world_build_ns"),
	}
}

func buildEntry(g *graph.Graph, r *rng.PCG32, opts Options, bm buildMetrics) worldEntry {
	var start time.Time
	if bm.nanos != nil {
		start = time.Now()
	}
	var world *worlds.World
	if opts.Model == LT {
		world = worlds.SampleLTMetered(g, r, bm.wm)
	} else {
		world = worlds.SampleMetered(g, r, bm.wm)
	}
	dec := scc.Tarjan(world)
	dag := scc.Condense(world, dec)
	if opts.TransitiveReduction {
		dag = scc.Reduce(dag, opts.MaxExactReduction)
	}
	memberOff, members := membersCSR(dec.Comp, dec.NumComps)
	succOff := make([]int32, dec.NumComps+1)
	for c, succs := range dag {
		succOff[c+1] = succOff[c] + int32(len(succs))
	}
	succ := make([]int32, 0, succOff[dec.NumComps])
	for _, succs := range dag {
		succ = append(succ, succs...)
	}
	bm.comps.Observe(int64(dec.NumComps))
	if bm.nanos != nil {
		bm.nanos.Observe(time.Since(start).Nanoseconds())
	}
	return worldEntry{comp: dec.Comp, memberOff: memberOff, members: members, succOff: succOff, succ: succ}
}

// NumWorlds returns ℓ, quarantined worlds included (see LiveWorlds).
func (x *Index) NumWorlds() int {
	if x.lazy != nil {
		return len(x.lazy.dir)
	}
	return len(x.entries)
}

// Graph returns the indexed probabilistic graph.
func (x *Index) Graph() *graph.Graph { return x.g }

// NumComponents returns the number of SCCs in world i. For a lazy index it
// is answered from the block directory without faulting the block in.
func (x *Index) NumComponents(i int) int {
	if x.lazy != nil {
		return int(x.lazy.dir[i].Aux)
	}
	return x.entries[i].numComps()
}

// CondensationEdges returns the number of condensation edges stored for
// world i (after reduction, if enabled); 0 for a quarantined world.
func (x *Index) CondensationEdges(i int) int {
	e := x.world(i)
	if e == nil {
		return 0
	}
	return len(e.succ)
}

// Component returns the component identifier of node v in world i (the
// matrix I[v,i] of the paper), or -1 if world i is quarantined.
func (x *Index) Component(v graph.NodeID, i int) int32 {
	e := x.world(i)
	if e == nil {
		return -1
	}
	return e.comp[v]
}

// Scratch holds reusable per-goroutine buffers for queries.
type Scratch struct {
	mark  []bool
	comps []int32

	flat   []graph.NodeID // CascadesFlat's cascades, back to back
	off    []int          // CascadesFlat's per-world offsets into flat
	prefix jaccard.PrefixScratch
}

// Prefix returns the scratch's buffers for jaccard.PrefixFlat, so the
// typical-cascade median over CascadesFlat reuses them from query to query.
func (s *Scratch) Prefix() *jaccard.PrefixScratch { return &s.prefix }

// NewScratch returns a Scratch sized for this index. Sizing uses
// NumComponents, so for a lazy index no blocks are faulted in.
func (x *Index) NewScratch() *Scratch {
	maxComps := 0
	for i := 0; i < x.NumWorlds(); i++ {
		if c := x.NumComponents(i); c > maxComps {
			maxComps = c
		}
	}
	return &Scratch{mark: make([]bool, maxComps)}
}

// Cascade returns the sorted cascade of v in world i, appended to out.
func (x *Index) Cascade(v graph.NodeID, i int, s *Scratch, out []graph.NodeID) []graph.NodeID {
	return x.CascadeFromSet([]graph.NodeID{v}, i, s, out)
}

// CascadeFromSet returns the sorted cascade of a seed set in world i (the
// union of the members' cascades), appended to out. A quarantined world
// returns out unchanged.
func (x *Index) CascadeFromSet(seeds []graph.NodeID, i int, s *Scratch, out []graph.NodeID) []graph.NodeID {
	e := x.world(i)
	if e == nil {
		return out
	}
	start := len(out)
	out = e.appendCascade(seeds, s, out)
	sortIDs(out[start:])
	return out
}

// appendCascade appends the cascade of seeds in this world to out, in
// traversal order.
func (e *worldEntry) appendCascade(seeds []graph.NodeID, s *Scratch, out []graph.NodeID) []graph.NodeID {
	s.comps = s.comps[:0]
	for _, v := range seeds {
		c := e.comp[v]
		if !s.mark[c] {
			s.mark[c] = true
			s.comps = append(s.comps, c)
		}
	}
	for head := 0; head < len(s.comps); head++ {
		for _, d := range e.succs(s.comps[head]) {
			if !s.mark[d] {
				s.mark[d] = true
				s.comps = append(s.comps, d)
			}
		}
	}
	for _, c := range s.comps {
		s.mark[c] = false
		out = append(out, e.members[e.memberOff[c]:e.memberOff[c+1]]...)
	}
	return out
}

// CascadeSize returns |cascade of v in world i| without materializing it.
func (x *Index) CascadeSize(v graph.NodeID, i int, s *Scratch) int {
	return x.CascadeSizeFromSet([]graph.NodeID{v}, i, s)
}

// CascadeSizeFromSet returns the cascade size of a seed set in world i,
// or 0 for a quarantined world.
func (x *Index) CascadeSizeFromSet(seeds []graph.NodeID, i int, s *Scratch) int {
	e := x.world(i)
	if e == nil {
		return 0
	}
	s.comps = s.comps[:0]
	for _, v := range seeds {
		c := e.comp[v]
		if !s.mark[c] {
			s.mark[c] = true
			s.comps = append(s.comps, c)
		}
	}
	total := 0
	for head := 0; head < len(s.comps); head++ {
		c := s.comps[head]
		total += int(e.memberOff[c+1] - e.memberOff[c])
		for _, d := range e.succs(c) {
			if !s.mark[d] {
				s.mark[d] = true
				s.comps = append(s.comps, d)
			}
		}
	}
	for _, c := range s.comps {
		s.mark[c] = false
	}
	return total
}

// VisitCascadeComps calls f(c, size) for every component in the cascade of
// seeds in world i. It is the allocation-free primitive the influence-
// maximization greedy uses for marginal-gain computations. A quarantined
// world visits nothing.
func (x *Index) VisitCascadeComps(seeds []graph.NodeID, i int, s *Scratch, f func(c int32, size int32)) {
	e := x.world(i)
	if e == nil {
		return
	}
	s.comps = s.comps[:0]
	for _, v := range seeds {
		c := e.comp[v]
		if !s.mark[c] {
			s.mark[c] = true
			s.comps = append(s.comps, c)
		}
	}
	for head := 0; head < len(s.comps); head++ {
		c := s.comps[head]
		for _, d := range e.succs(c) {
			if !s.mark[d] {
				s.mark[d] = true
				s.comps = append(s.comps, d)
			}
		}
	}
	for _, c := range s.comps {
		s.mark[c] = false
		f(c, e.memberOff[c+1]-e.memberOff[c])
	}
}

// Cascades returns the cascades of v in every live world, each sorted. This
// is the per-node sample collection handed to the Jaccard median
// (Algorithm 2). Quarantined worlds are skipped — not returned as empty
// cascades, which would bias the median — so len(result) is LiveWorlds.
func (x *Index) Cascades(v graph.NodeID, s *Scratch) [][]graph.NodeID {
	return x.CascadesFromSet([]graph.NodeID{v}, s)
}

// CascadesFromSet returns the cascades of a seed set in every live world.
func (x *Index) CascadesFromSet(seeds []graph.NodeID, s *Scratch) [][]graph.NodeID {
	n := x.NumWorlds()
	out := make([][]graph.NodeID, 0, n)
	for i := 0; i < n; i++ {
		if x.world(i) == nil {
			continue
		}
		out = append(out, x.CascadeFromSet(seeds, i, s, nil))
	}
	return out
}

// CascadesFlat returns the cascades of a seed set in every live world in
// one buffer, unsorted: live world j's cascade is flat[off[j]:off[j+1]], so
// len(off)-1 is LiveWorlds, as for CascadesFromSet. The offsets are ints,
// so the total size across worlds is bounded only by memory. Both slices
// belong to s and are valid until its next use.
func (x *Index) CascadesFlat(seeds []graph.NodeID, s *Scratch) (flat []graph.NodeID, off []int) {
	flat, off = s.flat[:0], append(s.off[:0], 0)
	for i := 0; i < x.NumWorlds(); i++ {
		if e := x.world(i); e != nil {
			flat = e.appendCascade(seeds, s, flat)
			off = append(off, len(flat))
		}
	}
	s.flat, s.off = flat, off
	return flat, off
}

// MemoryFootprint returns an estimate of the index's resident bytes, used
// by the space-ablation benchmarks. For a lazy index only the currently
// resident (faulted-in) worlds count — that is the point of the format.
func (x *Index) MemoryFootprint() int64 {
	var total int64
	footprint := func(e *worldEntry) {
		total += 4 * int64(len(e.comp)+len(e.memberOff)+len(e.members)+len(e.succOff)+len(e.succ))
	}
	if x.lazy != nil {
		for i := range x.lazy.loaded {
			if e := x.lazy.loaded[i].Load(); e != nil {
				footprint(e)
			}
		}
		total += int64(len(x.lazy.dir)) * (blockfile.EntrySize + 16)
		return total
	}
	for i := range x.entries {
		footprint(&x.entries[i])
	}
	return total
}

func sortIDs(s []graph.NodeID) {
	if len(s) <= 48 {
		for i := 1; i < len(s); i++ {
			v := s[i]
			j := i - 1
			for j >= 0 && s[j] > v {
				s[j+1] = s[j]
				j--
			}
			s[j+1] = v
		}
		return
	}
	sort.Slice(s, func(i, j int) bool { return s[i] < s[j] })
}
