package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/telemetry"
)

// Binary serialization of the cascade index. The paper's deployment story
// is "precompute the spheres of influence and store them in an index"; the
// SOIIDX04 file format (see v3.go) lets the index be built once and
// reloaded by query tools: strictly by Read and LoadFile, or by soid's
// LoadServing, which quarantines corrupt worlds.
//
// This file holds the per-world record every SOIIDX04 block carries
// (little endian):
//
//	comps   uint32
//	comp    [nodes]int32        node -> component
//	per component: deg uint32, then deg int32 successor ids
//
// In memory a world keeps both the members and the successors of its
// components as CSR arrays (see worldEntry); decodeEntry builds the members
// CSR from comp and the successor CSR from the degree-prefixed lists, so the
// block format is unchanged. The record (appendEntry/decodeEntry) is shared
// with the checkpoint payload of Build, so a partially built index
// checkpoints its completed worlds in exactly the on-disk format, and every
// reader — Read, LoadServing, Fsck and the checkpoint resume — goes through
// the one decoder.

// appendEntry appends the serialization of one world record to dst: comps,
// comp[], then per component its degree and successor ids.
func appendEntry(dst []byte, e *worldEntry) []byte {
	dst = slices.Grow(dst, 4*(1+len(e.comp)+e.numComps()+len(e.succ)))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(e.numComps()))
	for _, c := range e.comp {
		dst = binary.LittleEndian.AppendUint32(dst, uint32(c))
	}
	for c := int32(0); int(c) < e.numComps(); c++ {
		succs := e.succs(c)
		dst = binary.LittleEndian.AppendUint32(dst, uint32(len(succs)))
		for _, d := range succs {
			dst = binary.LittleEndian.AppendUint32(dst, uint32(d))
		}
	}
	return dst
}

// decodeEntry parses and validates one world record at the start of data
// for a graph with the given node count, and returns it with the number of
// bytes it occupies (data may continue past it). Nothing is allocated before
// the bytes it would hold are known to be present, so a forged count fails
// on the length check instead of allocating. world is only for error
// messages.
func decodeEntry(data []byte, nodes uint32, world int) (worldEntry, int, error) {
	le := binary.LittleEndian
	if len(data) < 4 {
		return worldEntry{}, 0, fmt.Errorf("index: world %d: record truncated at its component count", world)
	}
	comps := le.Uint32(data)
	if comps == 0 || comps > nodes {
		return worldEntry{}, 0, fmt.Errorf("index: world %d has implausible component count %d", world, comps)
	}
	// comp array plus one degree word per component.
	if int64(len(data)) < 4+4*int64(nodes)+4*int64(comps) {
		return worldEntry{}, 0, fmt.Errorf("index: world %d: record truncated: %d bytes cannot hold %d nodes and %d components", world, len(data), nodes, comps)
	}
	comp := make([]int32, nodes)
	p := 4
	for v := range comp {
		c := le.Uint32(data[p:])
		if c >= comps {
			return worldEntry{}, 0, fmt.Errorf("index: world %d: node %d has component %d out of range", world, v, int32(c))
		}
		comp[v] = int32(c)
		p += 4
	}
	// Pass 1 walks the degree words only: it validates them, checks that
	// every list is present, and lays out the successor offsets, so pass 2
	// can fill one exactly sized array.
	succOff := make([]int32, comps+1)
	start, q := p, p
	for c := uint32(0); c < comps; c++ {
		if len(data)-q < 4 {
			return worldEntry{}, 0, fmt.Errorf("index: world %d: record truncated at component %d", world, c)
		}
		deg := le.Uint32(data[q:])
		if deg > comps {
			return worldEntry{}, 0, fmt.Errorf("index: world %d: component %d degree %d out of range", world, c, deg)
		}
		q += 4
		if uint64(len(data)-q) < 4*uint64(deg) {
			return worldEntry{}, 0, fmt.Errorf("index: world %d: record truncated in component %d's %d successors", world, c, deg)
		}
		q += 4 * int(deg)
		if int64(succOff[c])+int64(deg) > math.MaxInt32 {
			return worldEntry{}, 0, fmt.Errorf("index: world %d: successor count overflows", world)
		}
		succOff[c+1] = succOff[c] + int32(deg)
	}
	succ := make([]int32, succOff[comps])
	q = start
	for c := uint32(0); c < comps; c++ {
		q += 4 // degree word, checked in pass 1
		for j := succOff[c]; j < succOff[c+1]; j++ {
			s := le.Uint32(data[q:])
			if s >= comps {
				return worldEntry{}, 0, fmt.Errorf("index: world %d: successor %d out of range", world, int32(s))
			}
			succ[j] = int32(s)
			q += 4
		}
	}
	memberOff, members := membersCSR(comp, int(comps))
	return worldEntry{comp: comp, memberOff: memberOff, members: members, succOff: succOff, succ: succ}, q, nil
}

// WriteTo serializes the index in the SOIIDX04 block-directory format and
// installs the fingerprint of the directory it wrote, so a built index and
// every later load of its file share one identity. An index with
// quarantined worlds is refused: rewriting it would silently drop data, so
// that is soifsck's job, not WriteTo's.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	ents := make([]*worldEntry, x.NumWorlds())
	for i := range ents {
		if ents[i] = x.world(i); ents[i] == nil {
			return 0, fmt.Errorf("index: world %d is quarantined or unreadable; repair the source file with soifsck before rewriting it", i)
		}
	}
	enc := worldBlocks(ents)
	dir := FileKind.Directory(len(ents), enc)
	x.setFingerprint(dir)
	meta := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, x.graphFP), uint32(x.model))
	return FileKind.Write(w, uint32(x.g.NumNodes()), meta, dir, enc)
}

// Read deserializes an index previously written with WriteTo. Reads are
// strict: the header and directory, every block and the whole-file footer
// are verified, and any corruption rejects the file (quarantine is
// LoadServing's policy). The file is streamed, never held whole. The graph
// g must be the graph the index was sampled from: a file recording another
// graph fingerprint is refused, naming both, before any world is decoded.
func Read(r io.Reader, g *graph.Graph) (*Index, error) { return read(r, g, nil) }

// read is the one index reader behind Read and LoadServing. With quarantine
// nil it is strict; otherwise a bad world is handed to quarantine and held
// empty, so world(i) is nil for it.
func read(r io.Reader, g *graph.Graph, quarantine func(world int, err error)) (*Index, error) {
	x := &Index{g: g}
	var bad func(int, error)
	if quarantine != nil {
		bad = func(i int, err error) {
			x.entries = append(x.entries, worldEntry{})
			x.quarantined++
			quarantine(i, err)
		}
	}
	h, err := FileKind.Read(r, func(h *blockfile.Header) error {
		if int(h.Nodes) != g.NumNodes() {
			return fmt.Errorf("index: built for %d nodes, graph has %d", h.Nodes, g.NumNodes())
		}
		if x.graphFP, x.model = ParseMeta(h.Meta); x.graphFP != graphFingerprint(g) {
			return fmt.Errorf("index: sampled from graph %016x, loaded graph is %016x; load the graph it was built from, or rebuild it with `%s`",
				x.graphFP, graphFingerprint(g), FileKind.Rebuild)
		}
		return nil
	}, func(h *blockfile.Header, i int, block []byte) error {
		if err := fault.Hit(fault.IndexBlockFault); err != nil {
			return fmt.Errorf("index: world %d load: %w", i, err)
		}
		e, err := verifyBlock(block, h.Dir[i], h.Nodes, i)
		if err == nil {
			x.entries = append(x.entries, e)
		}
		return err
	}, bad)
	if err != nil {
		return nil, err
	}
	x.setFingerprint(h.Dir)
	return x, nil
}

// membersCSR groups the nodes by component: the members of component c are
// members[off[c]:off[c+1]], in ascending node order.
func membersCSR(comp []int32, numComps int) (off, members []int32) {
	off = make([]int32, numComps+1)
	for _, c := range comp {
		off[c+1]++
	}
	for c := 1; c <= numComps; c++ {
		off[c] += off[c-1]
	}
	// Scatter with off[c] as component c's cursor; afterwards each cursor
	// sits at the next component's start, so shifting by one restores off.
	members = make([]int32, len(comp))
	for v, c := range comp {
		members[off[c]] = int32(v)
		off[c]++
	}
	copy(off[1:], off[:numComps])
	off[0] = 0
	return off, members
}

// SaveFile writes the index to path atomically (temp file + rename +
// directory sync), so an interrupted save never leaves a truncated index
// behind.
func (x *Index) SaveFile(path string) error {
	if err := fault.Hit(fault.IndexSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := x.WriteTo(w)
		return err
	})
}

// LoadFile reads an index for graph g from path.
func LoadFile(path string, g *graph.Graph) (*Index, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f, g)
}

// LoadServing reads an index for graph g from path the way soid serves it:
// with Read's verification, except that a world block failing its checksum
// or decode is quarantined instead of rejecting the file — counted in
// index.worlds_quarantined on the registry ctx carries, reported once to
// onQuarantine if it is non-nil, and left out of every answer (see
// LiveWorlds) — and a damaged whole-file footer alone is accepted. Damage
// to the header, the directory or its geometry, and truncation, still
// reject the file. An index that lost every world loads with LiveWorlds 0.
// The registry is attached to the index, as Build attaches it.
func LoadServing(ctx context.Context, path string, g *graph.Graph, onQuarantine func(world int, err error)) (*Index, error) {
	if err := fault.Hit(fault.IndexDirLoad); err != nil {
		return nil, fmt.Errorf("index: directory load: %w", err)
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	tel := telemetry.FromContext(ctx)
	quar := tel.Counter("index.worlds_quarantined")
	x, err := read(f, g, func(world int, err error) {
		quar.Inc()
		if onQuarantine != nil {
			onQuarantine(world, err)
		}
	})
	if err != nil {
		return nil, err
	}
	x.tel = tel
	return x, nil
}

// MmapOptions configures OpenMmap.
//
// Deprecated: pass the callback to LoadServing.
type MmapOptions struct{ OnQuarantine func(world int, err error) }

// Deprecated: OpenMmap is LoadServing without a registry; no index is memory-mapped.
func OpenMmap(path string, g *graph.Graph, opts MmapOptions) (*Index, error) {
	return LoadServing(context.Background(), path, g, opts.OnQuarantine)
}

// Deprecated: Lazy is always false; every index is decoded at load.
func (x *Index) Lazy() bool { return false }

// Deprecated: Close has nothing to release.
func (x *Index) Close() error { return nil }
