package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"
	"slices"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
)

// Binary serialization of the cascade index. The paper's deployment story
// is "precompute the spheres of influence and store them in an index"; the
// SOIIDX03 file format (see v3.go) lets the index be built once and
// reloaded — eagerly by Read, or page-on-demand by OpenMmap — by query
// tools.
//
// This file holds the per-world record every SOIIDX03 block carries
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
// reader — eager Read, OpenMmap fault-in, Fsck and the checkpoint resume —
// goes through the one decoder.

// castagnoli is the CRC32-C table shared by the index and sphere stores.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// countingWriter tracks bytes written for WriteTo's return value.
type countingWriter struct {
	w io.Writer
	n int64
}

func (c *countingWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

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

// WriteTo serializes the index in the SOIIDX03 block-directory format and
// installs the fingerprint of the directory it wrote, so a built index and
// every later load of its file share one identity. A lazily opened index
// must have every world readable: rewriting an artifact with quarantined
// worlds would silently drop data, so that is soifsck's job, not WriteTo's.
func (x *Index) WriteTo(w io.Writer) (int64, error) {
	ents := make([]*worldEntry, x.NumWorlds())
	for i := range ents {
		if ents[i] = x.world(i); ents[i] == nil {
			return 0, fmt.Errorf("index: world %d is quarantined or unreadable; repair the source file with soifsck before rewriting it", i)
		}
	}
	dir := v3Directory(ents)
	x.setFingerprint(dir)
	return writeV3(w, uint32(x.g.NumNodes()), ents, dir)
}

// Read deserializes an index previously written with WriteTo. Eager reads
// are strict: the header and directory, every block and the whole-file
// footer are verified, and any corruption rejects the file (quarantine is
// OpenMmap's behavior). The file is streamed, never held whole. The graph g
// must be the same graph the index was built from (node count is checked;
// deeper mismatches surface as wrong query results, so callers should keep
// graph and index files paired).
func Read(r io.Reader, g *graph.Graph) (*Index, error) {
	br := bufio.NewReader(r)
	h := crc32.New(castagnoli)
	tee := io.TeeReader(br, h)
	hdr, err := readV3Header(tee, g.NumNodes(), -1)
	if err != nil {
		return nil, err
	}
	x := &Index{g: g, entries: make([]worldEntry, 0, len(hdr.dir))}
	var blk bytes.Buffer
	for i, b := range hdr.dir {
		blk.Reset()
		if _, err := io.CopyN(&blk, tee, int64(b.Len)); err != nil {
			return nil, fmt.Errorf("%w: world %d block: %v", blockfile.ErrTruncated, i, err)
		}
		e, err := verifyBlock(blk.Bytes(), b, hdr.nodes, i)
		if err != nil {
			return nil, err
		}
		x.entries = append(x.entries, e)
	}
	fileSum := h.Sum32() // the footer's coverage: everything read so far
	var fb [v3FooterLen]byte
	if _, err := io.ReadFull(br, fb[:]); err != nil {
		return nil, fmt.Errorf("%w: index footer: %v", blockfile.ErrTruncated, err)
	}
	if footer := binary.LittleEndian.Uint32(fb[:]); footer != fileSum {
		return nil, fmt.Errorf("%w: checksum mismatch: file carries %08x, payload hashes to %08x", blockfile.ErrCorrupt, footer, fileSum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after checksum footer", blockfile.ErrCorrupt)
	}
	x.setFingerprint(hdr.dir)
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
