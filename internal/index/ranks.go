package index

import (
	"slices"
)

// RankScratch holds the reusable buffers for WorldReachRanks passes. The
// per-component bottom-k lists live in one flat arena indexed by offsets, so
// a pass allocates nothing once the scratch has warmed up — the allocation
// cost of a [][]uint64 result (one slice header per component, ~n of them
// per world) dominated the whole sketch build before this layout.
type RankScratch struct {
	offs   []int32
	data   []uint64
	merged []uint64
	comp   []int32 // the pass's world's node -> component map, unpacked
}

// List returns component c's ascending bottom-k rank list from the last
// WorldReachRanks pass that used this scratch. The slice aliases the
// scratch arena and is valid until the next pass.
func (s *RankScratch) List(c int32) []uint64 {
	return s.data[s.offs[c]:s.offs[c+1]]
}

// WorldReachRanks runs one reverse-reachability rank pass over world i's
// condensation DAG: the result for component c is the ascending bottom-k
// list of rank(u) over every node u reachable from c's members in that
// world. Components are numbered reverse-topologically (sinks first), so a
// single ascending pass over component ids has every successor's list ready
// when it is needed — this is the per-world primitive combined bottom-k
// reachability sketches (internal/sketch) are built from.
//
// rank maps a node id to its random rank for this world; the caller owns
// the rank space, so ranks from different worlds can be kept distinct when
// many worlds are merged into one combined sketch. Results are read through
// scratch.List(comp[v]); comp maps nodes to component ids, unpacked into
// the scratch, so it too is valid until the scratch's next pass. ok is
// false when world i is quarantined; a quarantined world must contribute
// nothing to any estimate.
func (x *Index) WorldReachRanks(i, k int, rank func(v int32) uint64, scratch *RankScratch) (comp []int32, ok bool) {
	e := x.world(i)
	if e == nil {
		return nil, false
	}
	nc := e.numComps()
	if cap(scratch.offs) < nc+1 {
		scratch.offs = make([]int32, nc+1)
	}
	offs := scratch.offs[:nc+1]
	offs[0] = 0
	data := scratch.data[:0]
	merged := scratch.merged[:0]
	for c := 0; c < nc; c++ {
		merged = merged[:0]
		lo, hi := e.memberOff.pair(c)
		for j := lo; j < hi; j++ {
			merged = append(merged, rank(e.members.get(j)))
		}
		lo, hi = e.succOff.pair(c)
		for j := lo; j < hi; j++ {
			d := e.succ.get(j)
			merged = append(merged, data[offs[d]:offs[d+1]]...)
		}
		slices.Sort(merged)
		// Deduplicate: shared descendants reach c through several successors
		// and must count once. Equal ranks within one world are the same node
		// (rank is a function of the node id).
		out := merged[:0]
		for j, r := range merged {
			if j == 0 || r != merged[j-1] {
				out = append(out, r)
			}
		}
		if len(out) > k {
			out = out[:k]
		}
		data = append(data, out...)
		offs[c+1] = int32(len(data))
	}
	comp = slices.Grow(scratch.comp[:0], int(e.nodes))[:e.nodes]
	for v := range comp {
		comp[v] = e.comp.get(v)
	}
	scratch.offs, scratch.data, scratch.merged, scratch.comp = offs, data, merged, comp
	return comp, true
}
