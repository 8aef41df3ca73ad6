package index

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"

	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// encodeWorlds is Build's checkpoint payload: every world marked in done,
// as its id followed by its serialized entry.
func (x *Index) encodeWorlds(done *checkpoint.Bitmap) ([]byte, error) {
	var buf bytes.Buffer
	for i := range x.entries {
		if !done.Get(i) {
			continue
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint32(i)); err != nil {
			return nil, err
		}
		if err := writeEntry(&buf, &x.entries[i]); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// compact returns an index over only the worlds marked done, in ascending
// world order — the partial result of a deadline-bounded build.
func (x *Index) compact(done *checkpoint.Bitmap) *Index {
	out := &Index{g: x.g, entries: make([]worldEntry, 0, done.Count()), tel: x.tel}
	for i := 0; i < done.Len(); i++ {
		if done.Get(i) {
			out.entries = append(out.entries, x.entries[i])
		}
	}
	return out
}

// BuildFingerprint keys Build checkpoints: any change to the graph,
// the sample count, the seed, the model, or the reduction options yields a
// different fingerprint and makes old checkpoints checkpoint.ErrStale.
func BuildFingerprint(g *graph.Graph, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("index.Build").
		Graph(g).
		Int(opts.Samples).
		Uint64(opts.Seed).
		Bool(opts.TransitiveReduction).
		Int(opts.MaxExactReduction).
		Int(int(opts.Model)).
		Sum()
}

// decodeBuildPayload restores completed worlds from a checkpoint payload.
// The CRC32-C footer already vouches for the bytes; these checks catch
// logic-level mismatches and report them as corruption.
func decodeBuildPayload(st *checkpoint.State, nodes uint32, entries []worldEntry) error {
	br := bytes.NewReader(st.Payload)
	seen := 0
	for {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%w: index payload: %v", checkpoint.ErrCorrupt, err)
		}
		if int(id) >= len(entries) || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: index payload names world %d outside the done bitmap", checkpoint.ErrCorrupt, id)
		}
		e, err := readEntry(br, nodes, int(id))
		if err != nil {
			return fmt.Errorf("%w: index payload world %d: %v", checkpoint.ErrCorrupt, id, err)
		}
		entries[id] = e
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: index payload covers %d worlds, bitmap records %d", checkpoint.ErrCorrupt, seen, st.Done.Count())
	}
	return nil
}
