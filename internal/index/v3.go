package index

import (
	"encoding/binary"
	"fmt"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
)

// SOIIDX04, the index file format, is the blockfile container (see
// internal/blockfile) with one block per world: block i is the appendEntry
// serialization of world i, its aux word the component count. The 12-byte
// meta names what the worlds were sampled from: the graph fingerprint
// (soi.Fingerprint, u64) and the model (u32).
//
// The per-block CRC turns corruption from a fatal whole-file property into a
// per-world one: after the header and directory verify, every world block is
// checked against its own checksum and decoded on its own, so a bad block
// can cost just that world while the other ℓ-1 keep answering.
//
// Every reader verifies the file the same way: blockfile's Kind.Read checks
// everything before the first block (as FileKind.ReadHeader, which refuses
// an unknown model), read refuses any graph but the recorded one, and
// verifyBlock decodes each CRC-checked block through decodeEntry, the one
// world decoder that Build's checkpoint resume uses too. Read (and LoadFile)
// is strict: any corruption rejects the file. LoadServing, soid's load,
// quarantines a bad world block instead, and accepts a file whose only
// damage is its whole-file footer. Offline, blockfile.Fsck reports every
// bad block and the footer.
//
// SOIIDX04 is the only index format; a file with any other magic is
// rejected with blockfile.ErrMagic and must be rebuilt.

// FileKind is the index's blockfile kind.
var FileKind = &blockfile.Kind{
	Name:    "index",
	Magic:   [8]byte{'S', 'O', 'I', 'I', 'D', 'X', '0', '4'},
	Meta:    8 + 4, // graph fingerprint, model
	Rebuild: "sphere -graph g.tsv -build-index new.idx",
	CheckMeta: func(meta []byte) error {
		if _, m := ParseMeta(meta); m != IC && m != LT {
			return fmt.Errorf("unknown propagation model %d", m)
		}
		return nil
	},
	CheckEntry: func(h *blockfile.Header, i int) error {
		e := h.Dir[i]
		if e.Aux == 0 || e.Aux > h.Nodes {
			return fmt.Errorf("implausible component count %d", e.Aux)
		}
		// A world block is at least: comps word, comp array, one degree word
		// per component.
		if min := 4 + 4*int64(h.Nodes) + 4*int64(e.Aux); int64(e.Len) < min {
			return fmt.Errorf("block is %d bytes, minimum for %d components is %d", e.Len, e.Aux, min)
		}
		return nil
	},
	Decode: func(h *blockfile.Header, i int, block []byte) error {
		_, err := verifyBlock(block, h.Dir[i], h.Nodes, i)
		return err
	},
}

// worldBlocks encodes one world per block, its component count as the
// directory's aux word.
func worldBlocks(entries []*worldEntry) blockfile.Encoder {
	return func(buf []byte, i int) ([]byte, uint32) {
		return appendEntry(buf, entries[i]), uint32(entries[i].numComps())
	}
}

// verifyBlock is the structural check of one CRC-verified world block
// behind Read, LoadServing and Fsck: the decode (which must consume the block
// exactly), then the decoded component count against the directory's.
func verifyBlock(data []byte, b blockfile.BlockInfo, nodes uint32, world int) (worldEntry, error) {
	e, n, err := decodeEntry(data, nodes, world)
	if err != nil {
		return worldEntry{}, fmt.Errorf("%w: %v", blockfile.ErrCorrupt, err)
	}
	if n != len(data) {
		return worldEntry{}, fmt.Errorf("%w: world %d: %d trailing bytes in block", blockfile.ErrCorrupt, world, len(data)-n)
	}
	if uint32(e.numComps()) != b.Aux {
		return worldEntry{}, fmt.Errorf("%w: world %d decodes to %d components, directory says %d", blockfile.ErrCorrupt, world, e.numComps(), b.Aux)
	}
	return e, nil
}

// ParseMeta returns the graph fingerprint and model an SOIIDX04 meta holds.
func ParseMeta(meta []byte) (graphFP uint64, model Model) {
	return binary.LittleEndian.Uint64(meta), Model(binary.LittleEndian.Uint32(meta[8:]))
}

func graphFingerprint(g *graph.Graph) uint64 { return checkpoint.NewHasher().Graph(g).Sum() }

// Fingerprint returns the index's identity: a hash of the graph fingerprint,
// the model and the SOIIDX04 block directory (offset, length, CRC, comps per
// world). The per-block CRCs make this exactly as content-sensitive as
// hashing the worlds, and a built index and every load of its file agree, a
// serving load with quarantined worlds included. The all-nodes sweep's
// checkpoints, the sphere store, the sketch and the topology manifest key on
// it. Loaded indexes and WriteTo install it from the directory they read or
// wrote; a built index measures its directory on first call.
func (x *Index) Fingerprint() uint64 {
	x.fpOnce.Do(func() {
		ents := make([]*worldEntry, len(x.entries))
		for i := range x.entries {
			ents[i] = &x.entries[i]
		}
		x.fp = x.dirFingerprint(FileKind.Directory(len(ents), worldBlocks(ents)))
	})
	return x.fp
}

// setFingerprint installs the fingerprint of dir, unless one is already
// cached.
func (x *Index) setFingerprint(dir []blockfile.BlockInfo) {
	x.fpOnce.Do(func() { x.fp = x.dirFingerprint(dir) })
}

func (x *Index) dirFingerprint(dir []blockfile.BlockInfo) uint64 {
	h := checkpoint.NewHasher().String("index.DirV4").Uint64(x.graphFP).Int(int(x.model)).Int(len(dir))
	for _, b := range dir {
		h.Uint64(uint64(b.Off)).
			Uint64(uint64(b.Len)<<32 | uint64(b.CRC)).
			Uint64(uint64(b.Aux))
	}
	return h.Sum()
}
