package index

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"math/bits"
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
// SOIIDX05 file format (see v3.go) lets the index be built once and
// reloaded by query tools: strictly by Read and LoadFile, or by soid's
// LoadServing, which quarantines corrupt worlds.
//
// This file holds the per-world record every SOIIDX05 block carries:
//
//	comps   uvarint
//	total   uvarint             successor count over all components
//	comp    [nodes] × ⌈log₂ comps⌉ bits, node -> component, packed from
//	        the low bit of each byte up, zero-padded to a byte
//	per component c: deg uvarint, then deg successors s, each as the
//	        zig-zag uvarint of s minus the previous successor (c for the
//	        first)
//
// Varints are canonical (no overlong form) and at most 32 bits, and the
// padding bits are zero, so a record has exactly one encoding. Most nodes
// of a sampled world are singleton components with no successor, and
// successors sit close to their component (ids are reverse-topological), so
// a record is about a third of the n + comps + edges words it decodes to.
//
// In memory a world keeps both the members and the successors of its
// components as CSR arrays (see worldEntry); decodeEntry fills the comp
// array and the successor CSR in one pass and builds the members CSR from
// comp. The record (appendEntry/decodeEntry) is shared with the checkpoint
// payload of Build, so a partially built index checkpoints its completed
// worlds in exactly the on-disk format, and every reader — Read,
// LoadServing, Fsck and the checkpoint resume — goes through the one
// decoder.

// compBits is the width of a packed component id: ⌈log₂ comps⌉, 0 for a
// world with one component.
func compBits(comps uint32) uint { return uint(bits.Len32(comps - 1)) }

// packedLen is the byte length of nodes packed ids for comps components.
func packedLen(nodes, comps uint32) uint64 {
	return (uint64(nodes)*uint64(compBits(comps)) + 7) / 8
}

// minRecord is the shortest record for nodes and comps: its two counts
// (the successor total at least one byte), the packed ids, and one degree
// byte per component.
func minRecord(nodes, comps uint32) uint64 {
	return uint64(varintLen(comps)) + 1 + packedLen(nodes, comps) + uint64(comps)
}

func varintLen(v uint32) int { return (bits.Len32(v|1) + 6) / 7 }

func zigzag(d int64) uint64 { return uint64(d<<1 ^ d>>63) }

// appendEntry appends the serialization of one world record to dst.
func appendEntry(dst []byte, e *worldEntry) []byte {
	comps := uint32(e.numComps())
	width := compBits(comps)
	dst = slices.Grow(dst, int(minRecord(uint32(len(e.comp)), comps))+2*len(e.succ))
	dst = binary.AppendUvarint(dst, uint64(comps))
	dst = binary.AppendUvarint(dst, uint64(len(e.succ)))
	var acc uint64
	var n uint
	for _, c := range e.comp {
		acc |= uint64(c) << n
		for n += width; n >= 8; n -= 8 {
			dst = append(dst, byte(acc))
			acc >>= 8
		}
	}
	if n > 0 {
		dst = append(dst, byte(acc))
	}
	for c := int32(0); c < int32(comps); c++ {
		succs := e.succs(c)
		dst = binary.AppendUvarint(dst, uint64(len(succs)))
		prev := c
		for _, d := range succs {
			dst = binary.AppendUvarint(dst, zigzag(int64(d)-int64(prev)))
			prev = d
		}
	}
	return dst
}

// uvarint decodes the canonical uvarint of at most 32 bits at data[p:] and
// returns it and the offset past it; ok is false for a truncated, overlong
// or oversized varint.
func uvarint(data []byte, p int) (v uint32, next int, ok bool) {
	var x uint64
	for shift := uint(0); shift < 35; shift += 7 {
		if p >= len(data) {
			return 0, p, false
		}
		b := data[p]
		p++
		x |= uint64(b&0x7f) << shift
		if b < 0x80 {
			// A zero final byte past the first is an overlong form.
			if (b == 0 && shift > 0) || x > math.MaxUint32 {
				return 0, p, false
			}
			return uint32(x), p, true
		}
	}
	return 0, p, false
}

// decodeEntry parses and validates one world record at the start of data
// for a graph with the given node count, stores it in *dst, and returns the
// number of bytes it occupies (data may continue past it). No count the
// record claims is allocated for before the bytes it needs (packed ids, a
// byte per degree and per successor) are known to be present, so a forged
// count fails on the length check instead of allocating; only the per-node
// arrays are sized by nodes, the caller's count. With dst nil the record is
// only checked and nothing is allocated per node, so a graph-free check
// (Fsck) never sizes an array by a node count no graph vouches for. world is
// only for error messages.
func decodeEntry(data []byte, nodes uint32, world int, dst *worldEntry) (int, error) {
	comps, p, ok := uvarint(data, 0)
	if !ok {
		return 0, fmt.Errorf("index: world %d: malformed component count", world)
	}
	if comps == 0 || comps > nodes {
		return 0, fmt.Errorf("index: world %d has implausible component count %d", world, comps)
	}
	total, p, ok := uvarint(data, p)
	if !ok {
		return 0, fmt.Errorf("index: world %d: malformed successor total", world)
	}
	// The packed ids, then at least one byte per degree and per successor.
	packed := packedLen(nodes, comps)
	if uint64(len(data)-p) < packed+uint64(comps)+uint64(total) || total > math.MaxInt32 {
		return 0, fmt.Errorf("index: world %d: record truncated: %d bytes cannot hold %d nodes, %d components and %d successors", world, len(data), nodes, comps, total)
	}
	var comp []int32
	if dst != nil {
		comp = make([]int32, nodes)
	}
	width := compBits(comps)
	mask := uint64(1)<<width - 1
	end := p + int(packed)
	if width > 0 {
		le := binary.LittleEndian
		for v := range nodes {
			// A 64-bit load holds any id (width <= 32, offset < 8 bits);
			// near the end of data, the bytes are gathered one by one.
			bit := uint64(v) * uint64(width)
			i := p + int(bit>>3)
			var w uint64
			if i+8 <= len(data) {
				w = le.Uint64(data[i:])
			} else {
				for k := i; k < end; k++ {
					w |= uint64(data[k]) << (8 * uint(k-i))
				}
			}
			c := w >> (bit & 7) & mask
			if c >= uint64(comps) {
				return 0, fmt.Errorf("index: world %d: node %d has component %d out of range", world, v, c)
			}
			if dst != nil {
				comp[v] = int32(c)
			}
		}
		if pad := uint64(nodes) * uint64(width) % 8; pad != 0 && data[end-1]>>pad != 0 {
			return 0, fmt.Errorf("index: world %d: nonzero padding after the component ids", world)
		}
	}
	p = end
	// One pass fills the successor CSR, exactly sized by the total.
	succOff := make([]int32, comps+1)
	succ := make([]int32, total)
	j := uint32(0)
	for c := uint32(0); c < comps; c++ {
		var deg uint32
		if p < len(data) && data[p] < 0x80 {
			deg, p = uint32(data[p]), p+1
		} else if deg, p, ok = uvarint(data, p); !ok {
			return 0, fmt.Errorf("index: world %d: malformed degree of component %d", world, c)
		}
		if deg > comps || deg > total-j {
			return 0, fmt.Errorf("index: world %d: component %d degree %d out of range", world, c, deg)
		}
		prev := int64(c)
		for k := j + deg; j < k; j++ {
			var z uint32
			if p < len(data) && data[p] < 0x80 {
				z, p = uint32(data[p]), p+1
			} else if z, p, ok = uvarint(data, p); !ok {
				return 0, fmt.Errorf("index: world %d: malformed successor of component %d", world, c)
			}
			s := prev + (int64(z>>1) ^ -int64(z&1)) // zig-zag
			if s < 0 || s >= int64(comps) {
				return 0, fmt.Errorf("index: world %d: successor %d out of range", world, s)
			}
			succ[j] = int32(s)
			prev = s
		}
		succOff[c+1] = int32(j)
	}
	if j != total {
		return 0, fmt.Errorf("index: world %d: degrees sum to %d, successor total says %d", world, j, total)
	}
	if dst != nil {
		memberOff, members := membersCSR(comp, int(comps))
		*dst = worldEntry{comp: comp, memberOff: memberOff, members: members, succOff: succOff, succ: succ}
	}
	return p, nil
}

// WriteTo serializes the index in the SOIIDX05 block-directory format and
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
	meta := binary.LittleEndian.AppendUint32(binary.LittleEndian.AppendUint64(nil, x.graphFP), uint32(x.model))
	dir, n, err := FileKind.Write(w, uint32(x.g.NumNodes()), meta, len(ents), worldBlocks(ents))
	x.setFingerprint(dir)
	return n, err
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
		var e worldEntry
		err := verifyBlock(block, h.Dir[i], h.Nodes, i, &e)
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
