package index

import (
	"encoding/binary"
	"fmt"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/graph"
	"soi/internal/worlds"
)

// SOIIDX05, the index file format, is the blockfile container (see
// internal/blockfile) with one block per world: block i is the appendEntry
// record of world i (bit-packed component ids, varint condensation; see
// serialize.go), its aux word the component count. The 12-byte meta names
// what the worlds were sampled from: the graph fingerprint (soi.Fingerprint,
// u64) and the model (u32).
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
// SOIIDX05 is the only index format; a file with any other magic (SOIIDX04
// held the same worlds as fixed-width words) is rejected with
// blockfile.ErrMagic and must be rebuilt.

// FileKind is the index's blockfile kind.
var FileKind = &blockfile.Kind{
	Name:    "index",
	Magic:   [8]byte{'S', 'O', 'I', 'I', 'D', 'X', '0', '5'},
	Meta:    8 + 4, // graph fingerprint, model
	Rebuild: "sphere -graph g.tsv -build-index new.idx",
	CheckMeta: func(meta []byte) error {
		if _, m := ParseMeta(meta); m != worlds.IC && m != worlds.LT {
			return fmt.Errorf("unknown propagation model %d", m)
		}
		return nil
	},
	CheckEntry: func(h *blockfile.Header, i int) error {
		e := h.Dir[i]
		if e.Aux == 0 || e.Aux > h.Nodes {
			return fmt.Errorf("implausible component count %d", e.Aux)
		}
		if min := minRecord(h.Nodes, e.Aux); uint64(e.Len) < min {
			return fmt.Errorf("block is %d bytes, minimum for %d components is %d", e.Len, e.Aux, min)
		}
		return nil
	},
	// Fsck has no graph to bound the header's node count by, so it checks
	// a world without decoding it into per-node arrays.
	Decode: func(h *blockfile.Header, i int, block []byte) error {
		return verifyBlock(block, h.Dir[i], h.Nodes, i, nil, nil)
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
// behind Read, LoadServing and Fsck: the decode into dst (nil only checks;
// see decodeEntry, and for cur), which must consume the block exactly,
// then the record's component count against the directory's.
func verifyBlock(data []byte, b blockfile.BlockInfo, nodes uint32, world int, dst *worldEntry, cur *[]int32) error {
	n, err := decodeEntry(data, nodes, world, dst, cur)
	if err != nil {
		return fmt.Errorf("%w: %v", blockfile.ErrCorrupt, err)
	}
	if n != len(data) {
		return fmt.Errorf("%w: world %d: %d trailing bytes in block", blockfile.ErrCorrupt, world, len(data)-n)
	}
	if comps, _, _ := uvarint(data, 0); comps != b.Aux {
		return fmt.Errorf("%w: world %d decodes to %d components, directory says %d", blockfile.ErrCorrupt, world, comps, b.Aux)
	}
	return nil
}

// ParseMeta returns the graph fingerprint and model an SOIIDX05 meta holds.
func ParseMeta(meta []byte) (graphFP uint64, model worlds.Model) {
	return binary.LittleEndian.Uint64(meta), worlds.Model(binary.LittleEndian.Uint32(meta[8:]))
}

func graphFingerprint(g *graph.Graph) uint64 { return checkpoint.NewHasher().Graph(g).Sum() }

// Fingerprint returns the index's identity: a hash of the graph fingerprint,
// the model and the SOIIDX05 block directory (offset, length, CRC, comps per
// world). The per-block CRCs make this exactly as content-sensitive as
// hashing the worlds, and a built index and every load of its file agree, a
// serving load with quarantined worlds included. The all-nodes sweep's
// checkpoints, the sphere store, the sketch and the topology manifest key on
// it. Loaded indexes and WriteTo install it from the directory they read or
// wrote; a built index measures its directory on first call, encoding each
// world into one reused buffer for its length and checksum, as
// FileKind.Write lays them out.
func (x *Index) Fingerprint() uint64 {
	x.fpOnce.Do(func() {
		dir := make([]blockfile.BlockInfo, len(x.entries))
		off := FileKind.BlocksStart(len(dir))
		var rec []byte
		for i := range x.entries {
			rec = appendEntry(rec[:0], &x.entries[i])
			dir[i] = blockfile.BlockInfo{Off: off, Len: uint32(len(rec)), CRC: blockfile.Checksum(rec), Aux: uint32(x.entries[i].numComps())}
			off += int64(len(rec))
		}
		x.fp = x.dirFingerprint(dir)
	})
	return x.fp
}

// setFingerprint installs the fingerprint of dir, unless one is already
// cached.
func (x *Index) setFingerprint(dir []blockfile.BlockInfo) {
	x.fpOnce.Do(func() { x.fp = x.dirFingerprint(dir) })
}

func (x *Index) dirFingerprint(dir []blockfile.BlockInfo) uint64 {
	h := checkpoint.NewHasher().String("index.DirV5").Uint64(x.graphFP).Int(int(x.model)).Int(len(dir))
	for _, b := range dir {
		h.Uint64(uint64(b.Off)).
			Uint64(uint64(b.Len)<<32 | uint64(b.CRC)).
			Uint64(uint64(b.Aux))
	}
	return h.Sum()
}
