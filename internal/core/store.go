package core

import (
	"encoding/binary"
	"fmt"
	"io"
	"math"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/index"
)

// Persistent sphere store — the paper's §8 deployment scenario: "having the
// spheres of influence precomputed and stored in an index might provide a
// direct solution to several variants of influence maximization... when the
// next campaign is run, we can again reuse the same spheres of influence."
//
// The store serializes the per-node typical cascades with their cost
// estimates; a later process loads them and runs any of the max-cover
// variants (plain, weighted, budgeted) without touching the sampler.
//
// SOISPH03 is the blockfile container (see internal/blockfile) with an
// 8-byte meta, the Fingerprint of the index the spheres were computed from,
// and node-range blocks of blockfile.RangeNodes nodes. A block is the
// sphere records of its nodes in id order, each (little endian):
//
//	setLen       uint32
//	set          [setLen]int32   strictly ascending
//	sampleCost   float64
//	expectedCost float64
//
// A block's aux word counts its members, so its length is exact: 20 bytes
// per node plus 4 per member. The record codec is shared with ComputeAll's
// checkpoint payload. SOISPH03 is the only sphere-store format; a file with
// any other magic is rejected and must be rebuilt.

// StoreKind is the sphere store's blockfile kind.
var StoreKind = &blockfile.Kind{
	Name:       "sphere store",
	Magic:      [8]byte{'S', 'O', 'I', 'S', 'P', 'H', '0', '3'},
	Meta:       8,
	NodeRange:  true,
	Rebuild:    "sphere -graph g.tsv -index g.idx -all -store new.spheres",
	CheckEntry: blockfile.ExactLen(20, 4), // setLen and two costs per node, 4 bytes per member
	Decode: func(h *blockfile.Header, i int, block []byte) error {
		_, err := decodeSphereBlock(nil, h, i, block)
		return err
	},
}

// SaveSpheres writes the results of ComputeAll, computed from the index
// whose Fingerprint is indexFP, as a SOISPH03 store. Results must be indexed
// by node id (results[v].Seeds == [v]), as ComputeAll produces.
func SaveSpheres(w io.Writer, indexFP uint64, results []Result) error {
	for v := range results {
		if r := &results[v]; len(r.Seeds) != 1 || r.Seeds[0] != graph.NodeID(v) {
			return fmt.Errorf("core: result %d is not the single-source sphere of node %d", v, v)
		}
	}
	enc := func(buf []byte, i int) ([]byte, uint32) {
		members := 0
		lo, hi := blockfile.Range(i, len(results))
		for v := lo; v < hi; v++ {
			buf = appendSphereRecord(buf, &results[v])
			members += len(results[v].Set)
		}
		return buf, uint32(members)
	}
	meta := binary.LittleEndian.AppendUint64(nil, indexFP)
	_, _, err := StoreKind.Write(w, uint32(len(results)), meta, blockfile.RangeBlocks(len(results)), enc)
	return err
}

// LoadSpheres reads a sphere store, verifying every block and the footer.
// It returns the spheres, indexed by node id, and the Fingerprint of the
// index they were computed from. Timing fields are zero (they describe the
// original computation, not the load).
func LoadSpheres(r io.Reader) ([]Result, uint64, error) {
	var out []Result
	h, err := StoreKind.Read(r, nil, func(h *blockfile.Header, i int, block []byte) (err error) {
		out, err = decodeSphereBlock(out, h, i, block)
		return err
	}, nil)
	if err != nil {
		return nil, 0, err
	}
	return out, binary.LittleEndian.Uint64(h.Meta), nil
}

// decodeSphereBlock appends the spheres of block i to out.
func decodeSphereBlock(out []Result, h *blockfile.Header, i int, block []byte) ([]Result, error) {
	lo, hi := h.Range(i)
	p := 0
	for v := lo; v < hi; v++ {
		r, n, err := decodeSphereRecord(block[p:], uint32(v), h.Nodes)
		if err != nil {
			return out, fmt.Errorf("sphere store: %w: %v", blockfile.ErrCorrupt, err)
		}
		out = append(out, r)
		p += n
	}
	if p != len(block) {
		return out, fmt.Errorf("sphere store: %w: %s: %d trailing bytes in block", blockfile.ErrCorrupt, h.Label(i), len(block)-p)
	}
	return out, nil
}

// appendSphereRecord appends node v's sphere record — the layout's per-node
// part: the set's length, its members, and both cost estimates. The store
// and ComputeAll's checkpoint payload share it.
func appendSphereRecord(dst []byte, r *Result) []byte {
	le := binary.LittleEndian
	dst = le.AppendUint32(dst, uint32(len(r.Set)))
	for _, u := range r.Set {
		dst = le.AppendUint32(dst, uint32(u))
	}
	dst = le.AppendUint64(dst, math.Float64bits(r.SampleCost))
	return le.AppendUint64(dst, math.Float64bits(r.ExpectedCost))
}

// decodeSphereRecord decodes and validates node v's sphere record at the
// start of data, in an n-node graph, and returns it with the bytes it
// occupies: members must be in range and strictly ascending, the sample
// cost in [0, 1], and the expected cost in [-1, 1]. The store and
// ComputeAll's checkpoint payload share it, so a resumed sweep can only
// return spheres the store accepts. Nothing is allocated before the bytes
// it would hold are known to be present.
func decodeSphereRecord(data []byte, v, n uint32) (Result, int, error) {
	le := binary.LittleEndian
	if len(data) < 4 {
		return Result{}, 0, fmt.Errorf("core: node %d sphere record truncated", v)
	}
	setLen := le.Uint32(data)
	if setLen > n {
		return Result{}, 0, fmt.Errorf("core: node %d sphere size %d exceeds node count", v, setLen)
	}
	size := 4 + 4*int(setLen) + 16
	if len(data) < size {
		return Result{}, 0, fmt.Errorf("core: node %d sphere record truncated", v)
	}
	set := make([]graph.NodeID, setLen)
	prev := graph.NodeID(-1)
	for j := range set {
		e := graph.NodeID(le.Uint32(data[4+4*j:]))
		if e < 0 || uint32(e) >= n {
			return Result{}, 0, fmt.Errorf("core: node %d sphere contains out-of-range member %d", v, e)
		}
		if e <= prev {
			return Result{}, 0, fmt.Errorf("core: node %d sphere not strictly sorted", v)
		}
		set[j], prev = e, e
	}
	costs := data[4+4*setLen:]
	sampleCost := math.Float64frombits(le.Uint64(costs))
	expectedCost := math.Float64frombits(le.Uint64(costs[8:]))
	if math.IsNaN(sampleCost) || sampleCost < 0 || sampleCost > 1 {
		return Result{}, 0, fmt.Errorf("core: node %d has invalid sample cost %v", v, sampleCost)
	}
	if math.IsNaN(expectedCost) || expectedCost < -1 || expectedCost > 1 {
		return Result{}, 0, fmt.Errorf("core: node %d has invalid expected cost %v", v, expectedCost)
	}
	return Result{
		Seeds:        []graph.NodeID{graph.NodeID(v)},
		Set:          set,
		SampleCost:   sampleCost,
		ExpectedCost: expectedCost,
	}, size, nil
}

// SaveSpheresFile writes the sphere store to path atomically (temp file +
// rename + directory sync), so an interrupted save never leaves a truncated
// store behind.
func SaveSpheresFile(path string, indexFP uint64, results []Result) error {
	if err := fault.Hit(fault.StoreSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return SaveSpheres(w, indexFP, results)
	})
}

// LoadSpheresFile reads a sphere store from path.
func LoadSpheresFile(path string) ([]Result, error) { return LoadSpheresFor(path, nil) }

// LoadSpheresFor reads the sphere store at path and, unless x is nil,
// refuses it unless it was computed from the index x: spheres of other
// worlds would make a store answer disagree with the same query computed
// from x.
func LoadSpheresFor(path string, x *index.Index) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	rs, fp, err := LoadSpheres(f)
	if err == nil && x != nil && fp != x.Fingerprint() {
		return nil, fmt.Errorf("sphere store: computed from index %016x, not the loaded index %016x; rebuild it with `%s`", fp, x.Fingerprint(), StoreKind.Rebuild)
	}
	return rs, err
}
