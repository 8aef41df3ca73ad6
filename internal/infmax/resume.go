package infmax

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/worlds"
)

// rrKey keys RR checkpoints; it excludes k (see RR).
func rrKey(g *graph.Graph, opts RROptions, model worlds.Model) uint64 {
	return checkpoint.NewHasher().
		String("infmax.RR").
		Graph(g).
		Int(opts.Sets).
		Uint64(opts.Seed).
		Int(int(model)).
		Sum()
}

// rrArena holds the sampled RR sets in CSR form, in completion order:
// set j of the arena is nodes[off[j]:off[j+1]]. The greedy's outcome does
// not depend on that order, so resumed and freshly sampled sets share it.
type rrArena struct {
	nodes []graph.NodeID
	off   []int32
	// byID, kept only by checkpointed runs, maps a set id to its window of
	// nodes for the flusher. A window is written before MarkDone and is
	// immutable afterwards: the arena only grows past it, and a
	// reallocation leaves the window on the old array.
	byID [][]graph.NodeID
}

// close ends set id, whose nodes start at nodes[start].
func (a *rrArena) close(id, start int) {
	end := len(a.nodes)
	a.off = append(a.off, int32(end))
	if a.byID != nil {
		a.byID[id] = a.nodes[start:end:end]
	}
}

// encode is RR's checkpoint payload: for every set marked in done, its id,
// its size, and its nodes. It runs on the flusher while sampling continues,
// so it reads a byID slot only after done shows the set complete.
func (a *rrArena) encode(done *checkpoint.Bitmap) ([]byte, error) {
	var buf bytes.Buffer
	for i := range a.byID {
		if !done.Get(i) {
			continue
		}
		set := a.byID[i]
		if err := binary.Write(&buf, binary.LittleEndian, []uint32{uint32(i), uint32(len(set))}); err != nil {
			return nil, err
		}
		if err := binary.Write(&buf, binary.LittleEndian, set); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decode restores sampled RR sets from a checkpoint payload into the
// arena.
func (a *rrArena) decode(st *checkpoint.State, n int) error {
	br := bytes.NewReader(st.Payload)
	seen := 0
	for {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%w: rr payload: %v", checkpoint.ErrCorrupt, err)
		}
		if int(id) >= len(a.byID) || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: rr payload names set %d outside the done bitmap", checkpoint.ErrCorrupt, id)
		}
		var size uint32
		if err := binary.Read(br, binary.LittleEndian, &size); err != nil {
			return fmt.Errorf("%w: rr payload set %d: %v", checkpoint.ErrCorrupt, id, err)
		}
		if int(size) > n || size == 0 {
			return fmt.Errorf("%w: rr payload set %d has implausible size %d", checkpoint.ErrCorrupt, id, size)
		}
		start := len(a.nodes)
		a.nodes = append(a.nodes, make([]graph.NodeID, size)...)
		set := a.nodes[start:]
		if err := binary.Read(br, binary.LittleEndian, set); err != nil {
			return fmt.Errorf("%w: rr payload set %d nodes: %v", checkpoint.ErrCorrupt, id, err)
		}
		for _, v := range set {
			if v < 0 || int(v) >= n {
				return fmt.Errorf("%w: rr payload set %d contains out-of-range node %d", checkpoint.ErrCorrupt, id, v)
			}
		}
		a.close(int(id), start)
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: rr payload covers %d sets, bitmap records %d", checkpoint.ErrCorrupt, seen, st.Done.Count())
	}
	return nil
}
