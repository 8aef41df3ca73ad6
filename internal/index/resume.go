package index

import (
	"encoding/binary"
	"fmt"

	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// encodeWorlds is Build's checkpoint payload: every world marked in done,
// as its id followed by its serialized entry.
func (x *Index) encodeWorlds(done *checkpoint.Bitmap) ([]byte, error) {
	var buf []byte
	for i := range x.entries {
		if !done.Get(i) {
			continue
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(i))
		buf = appendEntry(buf, &x.entries[i])
	}
	return buf, nil
}

// compact returns an index over only the worlds marked done, in ascending
// world order — the partial result of a deadline-bounded build.
func (x *Index) compact(done *checkpoint.Bitmap) *Index {
	out := &Index{g: x.g, graphFP: x.graphFP, model: x.model, entries: make([]worldEntry, 0, done.Count()), tel: x.tel}
	for i := 0; i < done.Len(); i++ {
		if done.Get(i) {
			out.entries = append(out.entries, x.entries[i])
		}
	}
	return out
}

// BuildFingerprint keys Build checkpoints: any change to the graph, the
// sample count, the seed, the model or the world record format (the
// payload holds appendEntry records) yields a different fingerprint and
// makes old checkpoints checkpoint.ErrStale, so they are restarted rather
// than fed to the decoder.
func BuildFingerprint(g *graph.Graph, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("index.Build/SOIIDX05").
		Graph(g).
		Int(opts.Samples).
		Uint64(opts.Seed).
		Int(int(opts.Model)).
		Sum()
}

// decodeBuildPayload restores completed worlds from a checkpoint payload.
// The CRC32-C footer already vouches for the bytes; these checks catch
// logic-level mismatches and report them as corruption.
func decodeBuildPayload(st *checkpoint.State, nodes uint32, entries []worldEntry) error {
	data := st.Payload
	seen, next := 0, uint32(0) // encodeWorlds writes ids in ascending order
	for len(data) > 0 {
		if len(data) < 4 {
			return fmt.Errorf("%w: index payload: %d stray bytes where a world id should be", checkpoint.ErrCorrupt, len(data))
		}
		id := binary.LittleEndian.Uint32(data)
		if int64(id) >= int64(len(entries)) || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: index payload names world %d outside the done bitmap", checkpoint.ErrCorrupt, id)
		}
		if id < next {
			return fmt.Errorf("%w: index payload names world %d out of order", checkpoint.ErrCorrupt, id)
		}
		n, err := decodeEntry(data[4:], nodes, int(id), &entries[id])
		if err != nil {
			return fmt.Errorf("%w: index payload world %d: %v", checkpoint.ErrCorrupt, id, err)
		}
		data = data[4+n:]
		next = id + 1
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: index payload covers %d worlds, bitmap records %d", checkpoint.ErrCorrupt, seen, st.Done.Count())
	}
	return nil
}
