package sketch

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"
	"slices"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
)

// SOISKC02 is the blockfile container (see internal/blockfile) with a
// 28-byte meta and node-range blocks of blockfile.RangeNodes nodes (little
// endian):
//
//	meta    worlds  uint32    (source index worlds, quarantined included)
//	        live    uint32    (worlds that contributed ranks)
//	        k       uint32
//	        seed    uint64    (rank-hash seed)
//	        indexFP uint64    (Fingerprint of the source index)
//	block   cnt     [m]uint32 (ranks held by each of the block's m nodes, <= k)
//	        ranks   [Σcnt]uint64 (each node's, strictly ascending)
//
// A block's aux word counts its ranks, so its length is exact. A sketch is
// an estimator, so silent corruption would not crash — it would
// mis-estimate. The reader therefore validates everything it can
// structurally (counts, rank order) and verifies every checksum
// unconditionally: a corrupt file fails at open, never at query time.
// SOISKC02 is the only sketch format; a file with any other magic is
// rejected and must be rebuilt.

// FileKind is the sketch's blockfile kind.
var FileKind = &blockfile.Kind{
	Name:       "sketch",
	Magic:      [8]byte{'S', 'O', 'I', 'S', 'K', 'C', '0', '2'},
	Meta:       4 + 4 + 4 + 8 + 8,
	NodeRange:  true,
	Rebuild:    "sphere -graph g.tsv -index g.idx -sketch-out new.skc",
	CheckEntry: blockfile.ExactLen(4, 8), // a count per node, 8 bytes per rank
	Decode: func(h *blockfile.Header, i int, block []byte) error {
		_, err := decodeBlock(nil, h, i, block)
		return err
	},
}

// WriteTo serializes the sketch in the SOISKC02 format.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	le := binary.LittleEndian
	enc := func(buf []byte, i int) ([]byte, uint32) {
		lo, hi := blockfile.Range(i, s.nodes)
		for v := lo; v < hi; v++ {
			buf = le.AppendUint32(buf, uint32(s.off[v+1]-s.off[v]))
		}
		for _, rk := range s.ranks[s.off[lo]:s.off[hi]] {
			buf = le.AppendUint64(buf, rk)
		}
		return buf, uint32(s.off[hi] - s.off[lo])
	}
	meta := make([]byte, 0, FileKind.Meta)
	for _, u := range []uint32{uint32(s.worlds), uint32(s.live), uint32(s.k)} {
		meta = le.AppendUint32(meta, u)
	}
	meta = le.AppendUint64(le.AppendUint64(meta, s.seed), s.fp)
	_, n, err := FileKind.Write(w, uint32(s.nodes), meta, blockfile.RangeBlocks(s.nodes), enc)
	return n, err
}

// fromMeta returns the payload-free sketch the header describes, with its
// storage sized when the header is Backed.
func fromMeta(h *blockfile.Header) (*Sketch, error) {
	le := binary.LittleEndian
	m := h.Meta
	s := &Sketch{
		nodes:  int(h.Nodes),
		worlds: int(le.Uint32(m)),
		live:   int(le.Uint32(m[4:])),
		k:      int(le.Uint32(m[8:])),
		seed:   le.Uint64(m[12:]),
		fp:     le.Uint64(m[20:]),
		off:    []int32{0},
	}
	if s.live > s.worlds {
		return nil, fmt.Errorf("sketch: %w: live worlds %d exceed total %d", blockfile.ErrCorrupt, s.live, s.worlds)
	}
	if s.k < 2 {
		return nil, fmt.Errorf("sketch: %w: k %d below minimum 2", blockfile.ErrCorrupt, s.k)
	}
	if h.Backed {
		ranks := 0
		for _, e := range h.Dir {
			ranks += int(e.Aux)
		}
		s.off, s.ranks = make([]int32, 1, s.nodes+1), make([]uint64, 0, ranks)
	}
	return s, nil
}

// decodeBlock appends block i's nodes to s, which holds every node before
// them; a nil s starts from the header's meta.
func decodeBlock(s *Sketch, h *blockfile.Header, i int, block []byte) (*Sketch, error) {
	if s == nil {
		var err error
		if s, err = fromMeta(h); err != nil {
			return nil, err
		}
	}
	le := binary.LittleEndian
	lo, hi := h.Range(i)
	counts, ranks := block[:4*(hi-lo)], block[4*(hi-lo):] // FileKind.CheckEntry fixed the length
	first, start := len(s.off)-1, len(s.ranks)
	end := start
	for v := lo; v < hi; v++ {
		c := int(le.Uint32(counts[4*(v-lo):]))
		if c > s.k {
			return nil, fmt.Errorf("sketch: %w: node %d holds %d ranks, more than k=%d", blockfile.ErrCorrupt, v, c, s.k)
		}
		if end += c; end > math.MaxInt32 {
			return nil, fmt.Errorf("sketch: %w: %d ranks overflow the offset space", blockfile.ErrCorrupt, end)
		}
		s.off = append(s.off, int32(end))
	}
	if 8*(end-start) != len(ranks) {
		return nil, fmt.Errorf("sketch: %w: %s counts %d ranks in %d rank bytes", blockfile.ErrCorrupt, h.Label(i), end-start, len(ranks))
	}
	s.ranks = slices.Grow(s.ranks, end-start)[:end]
	for j := range s.ranks[start:] {
		s.ranks[start+j] = le.Uint64(ranks[8*j:])
	}
	for v, o := range s.off[first : len(s.off)-1] {
		r := s.ranks[o:s.off[first+v+1]]
		for j := 1; j < len(r); j++ {
			if r[j] <= r[j-1] {
				return nil, fmt.Errorf("sketch: %w: node %d ranks not strictly ascending", blockfile.ErrCorrupt, lo+v)
			}
		}
	}
	return s, nil
}

// Read deserializes a SOISKC02 sketch, verifying structure and checksums.
// The loaded sketch carries no telemetry; attach one with SetTelemetry.
func Read(r io.Reader) (*Sketch, error) {
	var s *Sketch
	_, err := FileKind.Read(r, nil, func(h *blockfile.Header, i int, block []byte) (err error) {
		s, err = decodeBlock(s, h, i, block)
		return err
	}, nil)
	if err != nil {
		return nil, err
	}
	return s, nil
}

// SaveFile writes the sketch to path atomically (temp file + rename +
// directory sync), so an interrupted save never leaves a truncated sketch.
func (s *Sketch) SaveFile(path string) error {
	if err := fault.Hit(fault.SketchSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// LoadFile reads a SOISKC02 sketch from path.
func LoadFile(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
