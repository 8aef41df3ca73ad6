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
	"encoding/binary"
	"errors"
	"fmt"
	"math/bits"
	"slices"
	"sort"
	"sync"
	"time"
	"unsafe"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/jaccard"
	"soi/internal/pool"
	"soi/internal/rng"
	"soi/internal/scc"
	"soi/internal/telemetry"
	"soi/internal/trace"
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

// String returns "IC" or "LT", and "" for a value that names no model.
func (m Model) String() string { return map[Model]string{IC: "IC", LT: "LT"}[m] }

// Options configures index construction.
type Options struct {
	// Samples is ℓ, the number of possible worlds to index. The paper's
	// experiments use 1000; Theorem 2 shows O(log(1/α)/α²) suffices for a
	// (1+O(α)) approximation.
	Samples int
	// Seed drives the deterministic sampling of worlds.
	Seed uint64
	// Model selects IC (default) or LT live-edge sampling (Index.Model).
	Model Model
}

// worldEntry is the per-world part of the index: the node -> component map
// and the (reduced) condensation as five CSR arrays, bit-packed at fixed
// widths into one buffer, so a world is one allocation whatever its
// component count:
//
//	comp      [nodes]    node -> component id        ⌈log₂ comps⌉ bits
//	memberOff [comps+1]  members of component c are   bits(nodes)
//	                     members[memberOff[c]:memberOff[c+1]]
//	members   [nodes]    nodes grouped by component   ⌈log₂ nodes⌉ bits
//	succOff   [comps+1]  successors of component c are bits(total)
//	                     succ[succOff[c]:succOff[c+1]]
//	succ      [total]    successor component ids      ⌈log₂ comps⌉ bits
//
// Each array starts on a byte, and comp, first, is packed exactly as the
// SOIIDX05 record packs it, so comp's view (see packed) is the whole
// buffer; a quarantined world has none. Component ids are
// reverse-topological (every successor id is below its source's).
type worldEntry struct {
	comp, memberOff, members, succOff, succ packed
	nodes, ncomps                           uint32
}

// packed is one fixed-width array in a world's buffer: element i is the
// width-bit field at bit i·width of b, low bits first. b runs from the
// array's first byte to the end of the buffer, so it holds the arrays after
// this one and the tail padding too.
type packed struct {
	b     []byte
	width uint32 // 0..32
	mask  uint32 // 1<<width - 1
}

// tailPad is the zero padding after a world's arrays: the 8 bytes a 64-bit
// load at the last element's first byte may reach, and the byte after them
// that pair reads.
const tailPad = 9

// window returns the tailPad bytes of b from byte k on, without a bounds
// check: the query kernels read several packed values per component
// visited, and checked reads made the spread kernel 9% slower.
// It stays inside the buffer for every element a reader asks for, because
// the tail padding covers the last element's window and every index a
// reader passes is a caller's node checked against the node count (compOf)
// or an id or offset that decodeEntry checked or a build wrote.
func window(b []byte, k uint64) *[tailPad]byte {
	return (*[tailPad]byte)(unsafe.Add(unsafe.Pointer(unsafe.SliceData(b)), k))
}

// get returns element i, i < the array's length. One unaligned 64-bit load
// holds it (width <= 32, bit offset < 8).
func (p *packed) get(i int) int32 {
	bit := uint64(i) * uint64(p.width)
	return int32(binary.LittleEndian.Uint64(window(p.b, bit>>3)[:8]) >> (bit & 7) & uint64(p.mask))
}

// pair returns elements i and i+1, i+1 < the array's length: the bounds an
// offset array gives entry i. One 64-bit load holds element i and all but
// at most 7 bits of element i+1, which the next byte supplies.
func (p *packed) pair(i int) (lo, hi int) {
	bit := uint64(i) * uint64(p.width)
	b := window(p.b, bit>>3)
	w, sh, mask := binary.LittleEndian.Uint64(b[:8]), bit&7+uint64(p.width), uint64(p.mask)
	return int(w >> (bit & 7) & mask), int((w>>sh | uint64(b[8])<<(64-sh&63)) & mask)
}

// set stores v, which must fit in width bits, as element i; the element
// must still be zero, as a new world's buffer is.
func (p *packed) set(i int, v uint32) {
	bit := uint64(i) * uint64(p.width)
	w := p.b[bit>>3:]
	binary.LittleEndian.PutUint64(w, binary.LittleEndian.Uint64(w)|uint64(v)<<(bit&7))
}

// newWorldEntry returns a zeroed world of nodes nodes, comps components and
// total successors, its arrays laid out at their widths.
func newWorldEntry(nodes, comps, total uint32) worldEntry {
	e := worldEntry{nodes: nodes, ncomps: comps}
	arrays := []struct {
		p     *packed
		count uint32
		width int
	}{
		{&e.comp, nodes, int(compBits(comps))},
		{&e.memberOff, comps + 1, bits.Len32(nodes)},
		{&e.members, nodes, bits.Len32(nodes - 1)},
		{&e.succOff, comps + 1, bits.Len32(total)},
		{&e.succ, total, int(compBits(comps))},
	}
	nbytes := func(count uint32, width int) int { return int((uint64(count)*uint64(width) + 7) / 8) }
	size := tailPad
	for _, a := range arrays {
		size += nbytes(a.count, a.width)
	}
	buf := make([]byte, size)
	for _, a := range arrays {
		*a.p = packed{b: buf, width: uint32(a.width), mask: 1<<a.width - 1}
		buf = buf[nbytes(a.count, a.width):]
	}
	return e
}

// fillMembers writes the members CSR from the comp array: memberOff from
// the per-component counts, then each node at its component's cursor, so
// a component lists its nodes in ascending order. *cur is the cursor
// scratch, reused from world to world.
func (e *worldEntry) fillMembers(cur *[]int32) {
	n, nc := int(e.nodes), int(e.ncomps)
	off := slices.Grow((*cur)[:0], nc+1)[:nc+1]
	clear(off)
	for v := range n {
		off[e.comp.get(v)+1]++
	}
	for c := 1; c <= nc; c++ {
		off[c] += off[c-1]
	}
	for c, o := range off {
		e.memberOff.set(c, uint32(o))
	}
	for v := range n {
		c := e.comp.get(v)
		e.members.set(int(off[c]), uint32(v))
		off[c]++
	}
	*cur = off
}

// numComps returns the world's component count.
func (e *worldEntry) numComps() int { return int(e.ncomps) }

// compOf returns node v's component id. v comes from the caller, so it is
// checked against the node count, as a slice index would be.
func (e *worldEntry) compOf(v graph.NodeID) int32 {
	if uint32(v) >= e.nodes {
		panic(fmt.Sprintf("index: node %d out of range [0, %d)", v, e.nodes))
	}
	return e.comp.get(int(v))
}

// Index is the cascade index. It is immutable after Build or load and safe
// for concurrent queries, provided each goroutine uses its own Scratch.
//
// A serving load (LoadServing) may quarantine corrupt worlds. Query methods
// treat a quarantined world as contributing nothing — estimator
// denominators use LiveWorlds, and sample collections skip it — so
// corruption shrinks the sample instead of skewing it.
type Index struct {
	g           *graph.Graph
	graphFP     uint64 // fingerprint of g
	model       Model
	entries     []worldEntry // a quarantined world's entry is empty
	quarantined int
	tel         *telemetry.Registry

	fpOnce sync.Once
	fp     uint64
}

// world returns world i's entry; nil means the world is quarantined and
// must contribute nothing. Every decoded or built world has a buffer, so
// an empty one marks quarantine.
func (x *Index) world(i int) *worldEntry {
	if e := &x.entries[i]; e.comp.b != nil {
		return e
	}
	return nil
}

// SetTelemetry attaches a registry to an index (typically one loaded by
// LoadFile, which has none): the context-free queries over it (core.Compute
// and its kin) meter into it. Call it before the index serves queries.
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
//
// The registry ctx carries (telemetry.FromContext) receives the build
// metrics (worlds sampled, condensation sizes, per-world build timings,
// pool utilization) and is attached to the built index, as by SetTelemetry.
// The "index.build" span opens under the span ctx carries.
func Build(ctx context.Context, g *graph.Graph, opts Options, cfg checkpoint.Config) (*Index, error) {
	if opts.Samples < 1 {
		return nil, fmt.Errorf("index: Samples must be >= 1, got %d", opts.Samples)
	}
	if opts.Model != IC && opts.Model != LT {
		return nil, fmt.Errorf("index: unknown Model %d", opts.Model)
	}
	if opts.Model == LT {
		if err := worlds.ValidateLTWeights(g); err != nil {
			return nil, err
		}
		// Warm the transpose once; SampleLT uses it and Reverse memoizes
		// without synchronization.
		g.Reverse()
	}
	tel := telemetry.FromContext(ctx)
	idx := &Index{g: g, graphFP: graphFingerprint(g), model: opts.Model, entries: make([]worldEntry, opts.Samples), tel: tel}
	r, st, err := checkpoint.Start(ctx, cfg, func() uint64 { return BuildFingerprint(g, opts) },
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
	bm := newBuildMetrics(tel)
	sp := trace.Child(ctx, "index.build")
	runErr := pool.Run(ctx, opts.Samples, pool.Options{},
		func(_, i int) error {
			if resumed.Get(i) {
				return nil
			}
			if err := r.Gate(); err != nil {
				return err
			}
			idx.entries[i] = buildEntry(g, gens[i], opts, bm)
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
		world = worlds.SampleLT(g, r, bm.wm)
	} else {
		world = worlds.Sample(g, r, bm.wm)
	}
	dec := scc.Tarjan(world)
	// Every condensation is transitively reduced (Algorithm 1's space
	// optimization); reachability, and so every cascade, is unchanged.
	dag := scc.Reduce(scc.Condense(world, dec), scc.DefaultMaxExactReduction)
	total := 0
	for _, succs := range dag {
		total += len(succs)
	}
	e := newWorldEntry(uint32(len(dec.Comp)), uint32(dec.NumComps), uint32(total))
	for v, c := range dec.Comp {
		e.comp.set(v, uint32(c))
	}
	j := 0
	for c, succs := range dag {
		for _, d := range succs {
			e.succ.set(j, uint32(d))
			j++
		}
		e.succOff.set(c+1, uint32(j))
	}
	var cur []int32
	e.fillMembers(&cur)
	bm.comps.Observe(int64(dec.NumComps))
	if bm.nanos != nil {
		bm.nanos.Observe(time.Since(start).Nanoseconds())
	}
	return e
}

// NumWorlds returns ℓ, quarantined worlds included (see LiveWorlds).
func (x *Index) NumWorlds() int { return len(x.entries) }

// LiveWorlds returns the number of worlds answering queries: NumWorlds
// minus quarantined. Estimators divide by this, so quarantine shrinks the
// sample instead of biasing it with empty cascades.
func (x *Index) LiveWorlds() int { return len(x.entries) - x.quarantined }

// QuarantinedWorlds returns how many worlds the load quarantined (always 0
// but for LoadServing, the one load that quarantines).
func (x *Index) QuarantinedWorlds() int { return x.quarantined }

// Graph returns the indexed probabilistic graph.
func (x *Index) Graph() *graph.Graph { return x.g }

// GraphFingerprint returns soi.Fingerprint of the graph sampled (and checked at load).
func (x *Index) GraphFingerprint() uint64 { return x.graphFP }

// Model returns the model the worlds were sampled under.
func (x *Index) Model() Model { return x.model }

// NumComponents returns the number of SCCs in world i; 0 for a quarantined
// world.
func (x *Index) NumComponents(i int) int {
	if e := x.world(i); e != nil {
		return e.numComps()
	}
	return 0
}

// Component returns the component identifier of node v in world i (the
// matrix I[v,i] of the paper), or -1 if world i is quarantined.
func (x *Index) Component(v graph.NodeID, i int) int32 {
	e := x.world(i)
	if e == nil {
		return -1
	}
	return e.compOf(v)
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

// NewScratch returns a Scratch sized for this index.
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
	memberOff, members := e.memberOff, e.members
	for _, c := range e.reach(seeds, s) {
		lo, hi := memberOff.pair(int(c))
		for j := lo; j < hi; j++ {
			out = append(out, members.get(j))
		}
	}
	return out
}

// reach returns the components reachable from seeds, in traversal order,
// in s.comps; s.mark is clear again on return.
func (e *worldEntry) reach(seeds []graph.NodeID, s *Scratch) []int32 {
	succOff, succ := e.succOff, e.succ
	mark, comps := s.mark, s.comps[:0]
	for _, v := range seeds {
		if c := e.compOf(v); !mark[c] {
			mark[c] = true
			comps = append(comps, c)
		}
	}
	for head := 0; head < len(comps); head++ {
		lo, hi := succOff.pair(int(comps[head]))
		for j := lo; j < hi; j++ {
			if d := succ.get(j); !mark[d] {
				mark[d] = true
				comps = append(comps, d)
			}
		}
	}
	for _, c := range comps {
		mark[c] = false
	}
	s.comps = comps
	return comps
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
	total := 0
	for _, c := range e.reach(seeds, s) {
		lo, hi := e.memberOff.pair(int(c))
		total += hi - lo
	}
	return total
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

// MemoryFootprint returns the index's resident world bytes: every world's
// bit-packed buffer, tail padding included (the per-world headers and the
// graph are not counted). The space-ablation benchmarks and the traced
// index.memory_mb report it.
func (x *Index) MemoryFootprint() int64 {
	var total int64
	for i := range x.entries {
		total += int64(len(x.entries[i].comp.b))
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
