package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/scc"
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
// The members CSR is rebuilt from comp at load time (cheaper than storing).
// The record (writeEntry/readEntry) is shared with the checkpoint payload of
// Build, so a partially built index checkpoints its completed
// worlds in exactly the on-disk format.

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

// writeEntry serializes one world record: comps, comp[], then per-component
// successor lists.
func writeEntry(w io.Writer, e *worldEntry) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(e.dag))); err != nil {
		return err
	}
	if err := binary.Write(w, binary.LittleEndian, e.comp); err != nil {
		return err
	}
	for _, succs := range e.dag {
		if err := binary.Write(w, binary.LittleEndian, uint32(len(succs))); err != nil {
			return err
		}
		if len(succs) > 0 {
			if err := binary.Write(w, binary.LittleEndian, succs); err != nil {
				return err
			}
		}
	}
	return nil
}

// readEntry parses and validates one world record for a graph with the given
// node count, rebuilding the members CSR. world is only for error messages.
func readEntry(br io.Reader, nodes uint32, world int) (worldEntry, error) {
	var comps uint32
	if err := binary.Read(br, binary.LittleEndian, &comps); err != nil {
		return worldEntry{}, err
	}
	if comps == 0 || comps > nodes {
		return worldEntry{}, fmt.Errorf("index: world %d has implausible component count %d", world, comps)
	}
	comp := make([]int32, nodes)
	if err := binary.Read(br, binary.LittleEndian, comp); err != nil {
		return worldEntry{}, err
	}
	for v, c := range comp {
		if c < 0 || uint32(c) >= comps {
			return worldEntry{}, fmt.Errorf("index: world %d: node %d has component %d out of range", world, v, c)
		}
	}
	dag := make(scc.SliceGraph, comps)
	for c := range dag {
		var deg uint32
		if err := binary.Read(br, binary.LittleEndian, &deg); err != nil {
			return worldEntry{}, err
		}
		if deg > comps {
			return worldEntry{}, fmt.Errorf("index: world %d: component %d degree %d out of range", world, c, deg)
		}
		if deg > 0 {
			succs := make([]int32, deg)
			if err := binary.Read(br, binary.LittleEndian, succs); err != nil {
				return worldEntry{}, err
			}
			for _, s := range succs {
				if s < 0 || uint32(s) >= comps {
					return worldEntry{}, fmt.Errorf("index: world %d: successor %d out of range", world, s)
				}
			}
			dag[c] = succs
		}
	}
	return rebuildEntry(comp, int(comps), dag), nil
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
	var footer uint32
	if err := binary.Read(br, binary.LittleEndian, &footer); err != nil {
		return nil, fmt.Errorf("%w: index footer: %v", blockfile.ErrTruncated, err)
	}
	if footer != fileSum {
		return nil, fmt.Errorf("%w: checksum mismatch: file carries %08x, payload hashes to %08x", blockfile.ErrCorrupt, footer, fileSum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after checksum footer", blockfile.ErrCorrupt)
	}
	x.setFingerprint(hdr.dir)
	return x, nil
}

func rebuildEntry(comp []int32, numComps int, dag scc.SliceGraph) worldEntry {
	off := make([]int32, numComps+1)
	for _, c := range comp {
		off[c+1]++
	}
	for c := 1; c <= numComps; c++ {
		off[c] += off[c-1]
	}
	members := make([]int32, len(comp))
	cursor := make([]int32, numComps)
	copy(cursor, off[:numComps])
	for v := int32(0); int(v) < len(comp); v++ {
		c := comp[v]
		members[cursor[c]] = v
		cursor[c]++
	}
	return worldEntry{comp: comp, memberOff: off, members: members, dag: dag}
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
