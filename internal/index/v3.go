package index

import (
	"bytes"
	"fmt"
	"sync/atomic"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/telemetry"
)

// SOIIDX03, the index file format, is the blockfile container (see
// internal/blockfile) with no meta and one block per world: block i is the
// appendEntry serialization of world i, its aux word the component count.
//
// The directory-first layout is what lets OpenMmap serve queries without
// deserializing the file: after verifying only header+directory (a few KB),
// every world block can be faulted in, CRC-verified, and decoded
// independently. The per-block CRC turns corruption from a fatal whole-file
// property into a per-world one — a bad block quarantines that world and the
// other ℓ-1 keep answering. The aux word mirrors the block's component
// count so scratch sizing and NumComponents never touch the blocks.
//
// All three file readers — eager Read, lazy OpenMmap and offline
// blockfile.Fsck — verify the file the same way: FileKind.ReadHeader checks
// everything before the first block, and verifyBlock decodes each
// CRC-checked block through decodeEntry, the one world decoder that Build's
// checkpoint resume uses too. The eager Read path is strict (any corruption
// rejects the file); quarantine-and-degrade is the OpenMmap serving
// behavior. The whole-file footer exists for eager Read and soifsck;
// OpenMmap deliberately does not verify it, since that would fault every
// page in and defeat lazy loading.
//
// SOIIDX03 is the only index format; a file with any other magic is
// rejected with blockfile.ErrMagic and must be rebuilt.

// FileKind is the index's blockfile kind.
var FileKind = &blockfile.Kind{
	Name:    "index",
	Magic:   [8]byte{'S', 'O', 'I', 'I', 'D', 'X', '0', '3'},
	Rebuild: "sphere -graph g.tsv -build-index new.idx",
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
// behind Read, OpenMmap and Fsck: the decode (which must consume the block
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

// Fingerprint returns the index's identity: a hash of the graph plus the
// SOIIDX03 block directory (offset, length, CRC, comps per world) of its
// worlds. The per-block CRCs make this exactly as content-sensitive as
// hashing the worlds, and a built index, its eager load and its mmap open
// all agree — an mmap open never has to fault every block in just to
// fingerprint itself. Downstream checkpointed sweeps (the all-nodes
// typical-cascade pass), the sketch file and the topology manifest key on
// it. Loaded indexes and WriteTo install it from the directory they read or
// wrote; a built index measures its directory on first call.
func (x *Index) Fingerprint() uint64 {
	x.fpOnce.Do(func() {
		ents := make([]*worldEntry, len(x.entries))
		for i := range x.entries {
			ents[i] = &x.entries[i]
		}
		x.fp = dirFingerprint(x.g, FileKind.Directory(len(ents), worldBlocks(ents)))
	})
	return x.fp
}

// setFingerprint installs the fingerprint of dir, unless one is already
// cached.
func (x *Index) setFingerprint(dir []blockfile.BlockInfo) {
	x.fpOnce.Do(func() { x.fp = dirFingerprint(x.g, dir) })
}

func dirFingerprint(g *graph.Graph, dir []blockfile.BlockInfo) uint64 {
	h := checkpoint.NewHasher().String("index.DirV3").Graph(g).Int(len(dir))
	for _, b := range dir {
		h.Uint64(uint64(b.Off)).
			Uint64(uint64(b.Len)<<32 | uint64(b.CRC)).
			Uint64(uint64(b.Aux))
	}
	return h.Sum()
}

// MmapOptions configures OpenMmap.
type MmapOptions struct {
	// OnQuarantine, if non-nil, is called once per quarantined world with
	// the world id and the corruption error, from whichever query goroutine
	// first faulted the bad block in.
	OnQuarantine func(world int, err error)
}

// lazyWorlds is the page-on-demand backing of an mmap-opened index: the
// verified directory plus a per-world cache of decoded blocks. Fault-in is
// lock-free (atomic pointer CAS; concurrent faulters race benignly and the
// losers' decodes are discarded). A faulted-in block stays resident.
type lazyWorlds struct {
	win *blockfile.Window
	*blockfile.Header
	loaded []atomic.Pointer[worldEntry]

	quar    []atomic.Bool
	nQuar   atomic.Int64
	onQuar  func(world int, err error)
	faults  *telemetry.Counter // index.block_faults; bound by SetTelemetry
	quarCtr *telemetry.Counter // index.worlds_quarantined; bound by SetTelemetry
}

// OpenMmap opens an index file for page-on-demand serving: only the header
// and block directory are read and verified now; world blocks are faulted
// in, CRC-checked, and decoded on first query touch. A block that fails its
// checksum or decode is quarantined — counted, reported through
// OnQuarantine, and never retried — and queries degrade to the surviving
// worlds instead of failing. Truncated or torn files are rejected here,
// from the directory, before any block is trusted. The index counts block
// faults and quarantines once a registry is attached with SetTelemetry.
func OpenMmap(path string, g *graph.Graph, opts MmapOptions) (*Index, error) {
	if err := fault.Hit(fault.IndexDirLoad); err != nil {
		return nil, fmt.Errorf("index: directory load: %w", err)
	}
	win, err := blockfile.OpenWindow(path)
	if err != nil {
		return nil, err
	}
	// The reader stops at the end of the directory, so only the header
	// pages are touched.
	all, _ := win.Range(0, win.Size())
	hdr, err := FileKind.ReadHeader(bytes.NewReader(all), g.NumNodes(), win.Size())
	if err != nil {
		win.Close()
		return nil, err
	}
	lz := &lazyWorlds{
		win:    win,
		Header: hdr,
		loaded: make([]atomic.Pointer[worldEntry], len(hdr.Dir)),
		quar:   make([]atomic.Bool, len(hdr.Dir)),
		onQuar: opts.OnQuarantine,
	}
	x := &Index{g: g, lazy: lz}
	x.setFingerprint(hdr.Dir)
	return x, nil
}

// world returns world i, faulting its block in on first touch; nil means
// the world is quarantined.
func (lz *lazyWorlds) world(i int) *worldEntry {
	if lz.quar[i].Load() {
		return nil
	}
	if e := lz.loaded[i].Load(); e != nil {
		return e
	}
	if err := fault.Hit(fault.IndexBlockFault); err != nil {
		return lz.quarantine(i, fmt.Errorf("index: world %d fault-in: %w", i, err))
	}
	b := lz.Dir[i]
	data, err := lz.win.Copy(b.Off, b.Len)
	if err != nil {
		return lz.quarantine(i, fmt.Errorf("index: world %d: %w", i, err))
	}
	if err := lz.Verify(i, data); err != nil {
		return lz.quarantine(i, fmt.Errorf("index: %w", err))
	}
	e, err := verifyBlock(data, b, lz.Nodes, i)
	if err != nil {
		return lz.quarantine(i, fmt.Errorf("index: %w", err))
	}
	lz.faults.Inc()
	ep := &e
	if !lz.loaded[i].CompareAndSwap(nil, ep) {
		return lz.loaded[i].Load() // a concurrent faulter won; use its copy
	}
	return ep
}

// quarantine marks world i bad exactly once: the counter, telemetry, and
// callback fire only for the winning caller. Quarantine is one-way — the
// block is never retried hot (the bytes will not get better; soifsck is the
// repair path).
func (lz *lazyWorlds) quarantine(i int, err error) *worldEntry {
	if lz.quar[i].CompareAndSwap(false, true) {
		lz.nQuar.Add(1)
		lz.quarCtr.Inc()
		if lz.onQuar != nil {
			lz.onQuar(i, err)
		}
	}
	return nil
}

// LiveWorlds returns the number of worlds still answering queries:
// NumWorlds minus quarantined. Estimators divide by this, so quarantine
// shrinks the sample instead of biasing it with empty cascades.
func (x *Index) LiveWorlds() int {
	if x.lazy != nil {
		return len(x.lazy.Dir) - int(x.lazy.nQuar.Load())
	}
	return len(x.entries)
}

// QuarantinedWorlds returns how many worlds have been quarantined so far
// (0 for eagerly loaded indexes, which reject corruption at load).
func (x *Index) QuarantinedWorlds() int {
	if x.lazy != nil {
		return int(x.lazy.nQuar.Load())
	}
	return 0
}

// Lazy reports whether the index serves blocks on demand from a file window
// (an OpenMmap index) rather than from decoded-up-front entries.
func (x *Index) Lazy() bool { return x.lazy != nil }

// Mapped reports whether a lazy index is backed by a real memory mapping
// (false: eager index, or the heap-buffered fallback platform).
func (x *Index) Mapped() bool { return x.lazy != nil && x.lazy.win.Mapped() }

// ResidentWorlds returns how many world blocks are currently decoded in
// memory. For an eager index this is every world.
func (x *Index) ResidentWorlds() int {
	if x.lazy == nil {
		return len(x.entries)
	}
	n := 0
	for i := range x.lazy.loaded {
		if x.lazy.loaded[i].Load() != nil {
			n++
		}
	}
	return n
}

// Close releases the file window of an OpenMmap index. Queries after Close
// on not-yet-resident worlds will quarantine them (the window is gone);
// close only after the last query. Eager indexes have nothing to release.
func (x *Index) Close() error {
	if x.lazy == nil {
		return nil
	}
	return x.lazy.win.Close()
}
