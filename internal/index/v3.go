package index

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"sync"
	"sync/atomic"

	"soi/internal/blockfile"
	"soi/internal/checkpoint"
	"soi/internal/fault"
	"soi/internal/graph"
	"soi/internal/telemetry"
)

// SOIIDX03: the index file format (little endian).
//
//	magic    [8]byte  "SOIIDX03"
//	nodes    uint32
//	worlds   uint32
//	dir      worlds × {off u64, len u32, crc u32, comps u32}   (blockfile entries)
//	dirCRC   uint32   CRC32-C of every byte above (magic included)
//	blocks   worlds contiguous world blocks, block i at dir[i].off,
//	         each the appendEntry serialization of one world
//	footer   uint32   CRC32-C of every preceding byte
//
// The directory-first layout is what lets OpenMmap serve queries without
// deserializing the file: after verifying only header+directory (a few KB),
// every world block can be faulted in, CRC-verified, and decoded
// independently. The per-block CRC turns corruption from a fatal whole-file
// property into a per-world one — a bad block quarantines that world and the
// other ℓ-1 keep answering. The comps field mirrors the block's component
// count so scratch sizing and NumComponents never touch the blocks.
//
// All three file readers — eager Read, lazy OpenMmap and offline Fsck —
// verify the file the same way: readV3Header checks everything before the
// first block, and verifyBlock checks each block through decodeEntry, the
// one world decoder that Build's checkpoint resume uses too. The eager Read
// path is strict (any corruption rejects the file); quarantine-and-degrade
// is the OpenMmap serving behavior. The whole-file footer exists for eager
// Read and soifsck; OpenMmap deliberately does not verify it, since that
// would fault every page in and defeat lazy loading.
//
// SOIIDX03 is the only index format; a file with any other magic is
// rejected with ErrVersion and must be rebuilt.

var magicV3 = [8]byte{'S', 'O', 'I', 'I', 'D', 'X', '0', '3'}

const (
	v3HeaderLen = 8 + 4 + 4 // magic + nodes + worlds
	v3FooterLen = 4
	// maxNodes and maxWorlds bound the header counts before any allocation
	// trusts them.
	maxNodes  = 1 << 28
	maxWorlds = 1 << 24
)

// ErrVersion is returned for a file that does not carry the SOIIDX03 magic.
var ErrVersion = errors.New("index: not a SOIIDX03 file")

// v3BlocksStart is the offset of the first world block: header, directory,
// directory CRC.
func v3BlocksStart(worlds int) int64 {
	return v3HeaderLen + int64(worlds)*blockfile.EntrySize + 4
}

// v3Directory encodes and checksums each world's block without keeping it
// (appendEntry is deterministic): pass 1 of the two-pass writer, and the
// input of the index fingerprint.
func v3Directory(entries []*worldEntry) []blockfile.BlockInfo {
	dir := make([]blockfile.BlockInfo, len(entries))
	off := v3BlocksStart(len(entries))
	var blk []byte
	for i, e := range entries {
		blk = appendEntry(blk[:0], e)
		dir[i] = blockfile.BlockInfo{Off: off, Len: uint32(len(blk)), CRC: blockfile.Checksum(blk), Aux: uint32(e.numComps())}
		off += int64(len(blk))
	}
	return dir
}

// writeV3 streams the v03 serialization of the given worlds under the
// directory v3Directory computed for them, encoding one block at a time
// into a reused buffer, so the file is never buffered whole. It takes bare
// entries rather than an *Index so soifsck can rewrite a repaired file
// without the original graph.
func writeV3(w io.Writer, nodes uint32, entries []*worldEntry, dir []blockfile.BlockInfo) (int64, error) {
	bw := bufio.NewWriter(w)
	h := crc32.New(castagnoli)
	cw := &countingWriter{w: io.MultiWriter(bw, h)}
	buf := make([]byte, 0, v3BlocksStart(len(dir)))
	buf = append(buf, magicV3[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, nodes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, b := range dir {
		buf = blockfile.AppendEntry(buf, b)
	}
	buf = binary.LittleEndian.AppendUint32(buf, blockfile.Checksum(buf))
	if _, err := cw.Write(buf); err != nil {
		return cw.n, err
	}
	for _, e := range entries {
		buf = appendEntry(buf[:0], e)
		if _, err := cw.Write(buf); err != nil {
			return cw.n, err
		}
	}
	// Whole-file footer: everything above, itself excluded.
	if _, err := bw.Write(binary.LittleEndian.AppendUint32(buf[:0], h.Sum32())); err != nil {
		return cw.n, err
	}
	return cw.n + v3FooterLen, bw.Flush()
}

// v3Header is the verified part of an index file before its first block.
type v3Header struct {
	nodes, worlds uint32
	dir           []blockfile.BlockInfo
}

// readV3Header reads and verifies everything before the first world block
// from r: the magic, the node and world counts, the directory checksum, and
// the directory's geometry and per-entry sanity. It is the one header check
// behind Read, OpenMmap and Fsck. wantNodes < 0 accepts any plausible node
// count (soifsck has no graph); fileSize < 0 skips the end-of-file geometry
// check (a stream does not know its length). On error the header holds the
// counts parsed so far, for soifsck's report.
func readV3Header(r io.Reader, wantNodes int, fileSize int64) (v3Header, error) {
	var hdr v3Header
	// The header is read through a growing buffer rather than a trusted
	// up-front allocation, so a forged world count fails at EOF instead of
	// allocating hundreds of MB.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(len(magicV3))); err != nil {
		return hdr, fmt.Errorf("%w: index magic: %v", blockfile.ErrTruncated, err)
	}
	if m := buf.Bytes(); !bytes.Equal(m, magicV3[:]) {
		return hdr, fmt.Errorf("%w: found magic %q; rebuild it with `sphere -graph g.tsv -build-index new.idx`", ErrVersion, m)
	}
	if _, err := io.CopyN(&buf, r, v3HeaderLen-int64(len(magicV3))); err != nil {
		return hdr, fmt.Errorf("%w: index header: %v", blockfile.ErrTruncated, err)
	}
	hdr.nodes = binary.LittleEndian.Uint32(buf.Bytes()[8:])
	hdr.worlds = binary.LittleEndian.Uint32(buf.Bytes()[12:])
	if wantNodes >= 0 && int(hdr.nodes) != wantNodes {
		return hdr, fmt.Errorf("index: built for %d nodes, graph has %d", hdr.nodes, wantNodes)
	}
	if hdr.nodes == 0 || hdr.nodes > maxNodes {
		return hdr, fmt.Errorf("%w: implausible node count %d", blockfile.ErrCorrupt, hdr.nodes)
	}
	if hdr.worlds == 0 || hdr.worlds > maxWorlds {
		return hdr, fmt.Errorf("%w: implausible world count %d", blockfile.ErrCorrupt, hdr.worlds)
	}

	dirEnd := v3HeaderLen + int64(hdr.worlds)*blockfile.EntrySize
	if _, err := io.CopyN(&buf, r, dirEnd+4-v3HeaderLen); err != nil {
		return hdr, fmt.Errorf("%w: index directory: %v", blockfile.ErrTruncated, err)
	}
	b := buf.Bytes()
	if stored, sum := binary.LittleEndian.Uint32(b[dirEnd:]), blockfile.Checksum(b[:dirEnd]); stored != sum {
		return hdr, fmt.Errorf("%w: directory checksum mismatch: file carries %08x, directory hashes to %08x", blockfile.ErrCorrupt, stored, sum)
	}
	dir, err := blockfile.ParseDirectory(b[v3HeaderLen:dirEnd], int(hdr.worlds))
	if err != nil {
		return hdr, fmt.Errorf("index: %w", err)
	}
	if err := blockfile.ValidateLayout(dir, v3BlocksStart(len(dir)), v3FooterLen, fileSize); err != nil {
		return hdr, fmt.Errorf("index: %w", err)
	}
	for i, e := range dir {
		if e.Aux == 0 || e.Aux > hdr.nodes {
			return hdr, fmt.Errorf("%w: world %d has implausible component count %d", blockfile.ErrCorrupt, i, e.Aux)
		}
		// A world block is at least: comps word, comp array, one degree word
		// per component.
		if min := 4 + 4*int64(hdr.nodes) + 4*int64(e.Aux); int64(e.Len) < min {
			return hdr, fmt.Errorf("%w: world %d block is %d bytes, minimum for %d components is %d", blockfile.ErrCorrupt, i, e.Len, e.Aux, min)
		}
	}
	hdr.dir = dir
	return hdr, nil
}

// verifyBlock is the one per-block check behind Read, OpenMmap and Fsck:
// the block's CRC against its directory entry, then the structural decode
// (which must consume the block exactly), then the decoded component count
// against the directory's.
func verifyBlock(data []byte, b blockfile.BlockInfo, nodes uint32, world int) (worldEntry, error) {
	if sum := blockfile.Checksum(data); sum != b.CRC {
		return worldEntry{}, fmt.Errorf("%w: world %d block hashes to %08x, directory says %08x", blockfile.ErrCorrupt, world, sum, b.CRC)
	}
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
		x.fp = dirFingerprint(x.g, v3Directory(ents))
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
	// MaxResident bounds how many decoded world blocks are kept in memory at
	// once; faulting in past the bound evicts the oldest (FIFO). 0 means
	// unbounded — every block faulted in stays resident.
	MaxResident int
	// Telemetry, if non-nil, receives index.block_faults and
	// index.worlds_quarantined counters (and is attached to the index).
	Telemetry *telemetry.Registry
	// OnQuarantine, if non-nil, is called once per quarantined world with
	// the world id and the corruption error, from whichever query goroutine
	// first faulted the bad block in.
	OnQuarantine func(world int, err error)
}

// lazyWorlds is the page-on-demand backing of an mmap-opened index: the
// verified directory plus a per-world cache of decoded blocks. Fault-in is
// lock-free (atomic pointer CAS; concurrent faulters race benignly and the
// losers' decodes are discarded); only the optional eviction FIFO takes a
// lock, off the cache-hit path.
type lazyWorlds struct {
	win    *blockfile.Window
	nodes  uint32
	dir    []blockfile.BlockInfo
	loaded []atomic.Pointer[worldEntry]

	quar    []atomic.Bool
	nQuar   atomic.Int64
	onQuar  func(world int, err error)
	faults  *telemetry.Counter // index.block_faults
	quarCtr *telemetry.Counter // index.worlds_quarantined

	maxResident int
	mu          sync.Mutex
	resident    []int // FIFO of faulted-in world ids (maxResident > 0 only)
}

// OpenMmap opens an index file for page-on-demand serving: only the header
// and block directory are read and verified now; world blocks are faulted
// in, CRC-checked, and decoded on first query touch. A block that fails its
// checksum or decode is quarantined — counted, reported through
// OnQuarantine, and never retried — and queries degrade to the surviving
// worlds instead of failing. Truncated or torn files are rejected here,
// from the directory, before any block is trusted.
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
	hdr, err := readV3Header(bytes.NewReader(all), g.NumNodes(), win.Size())
	if err != nil {
		win.Close()
		return nil, err
	}
	lz := &lazyWorlds{
		win:         win,
		nodes:       hdr.nodes,
		dir:         hdr.dir,
		loaded:      make([]atomic.Pointer[worldEntry], hdr.worlds),
		quar:        make([]atomic.Bool, hdr.worlds),
		onQuar:      opts.OnQuarantine,
		faults:      opts.Telemetry.Counter("index.block_faults"),
		quarCtr:     opts.Telemetry.Counter("index.worlds_quarantined"),
		maxResident: opts.MaxResident,
	}
	x := &Index{g: g, lazy: lz, tel: opts.Telemetry}
	x.setFingerprint(hdr.dir)
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
	b := lz.dir[i]
	data, err := lz.win.Copy(b.Off, b.Len)
	if err != nil {
		return lz.quarantine(i, fmt.Errorf("index: world %d: %w", i, err))
	}
	e, err := verifyBlock(data, b, lz.nodes, i)
	if err != nil {
		return lz.quarantine(i, fmt.Errorf("index: %w", err))
	}
	lz.faults.Inc()
	ep := &e
	if !lz.loaded[i].CompareAndSwap(nil, ep) {
		// A concurrent faulter won; use its copy (unless eviction already
		// cleared it again, in which case ours is as good as any).
		if cur := lz.loaded[i].Load(); cur != nil {
			return cur
		}
		lz.loaded[i].Store(ep)
	}
	lz.noteResident(i)
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

// noteResident does the FIFO-eviction bookkeeping after a successful
// fault-in. Evicted pointers are Store(nil)-ed; readers already holding the
// pointer keep a valid entry (the GC, not the cache, owns lifetime).
func (lz *lazyWorlds) noteResident(i int) {
	if lz.maxResident <= 0 {
		return
	}
	lz.mu.Lock()
	lz.resident = append(lz.resident, i)
	for len(lz.resident) > lz.maxResident {
		old := lz.resident[0]
		lz.resident = lz.resident[1:]
		if old != i {
			lz.loaded[old].Store(nil)
		}
	}
	lz.mu.Unlock()
}

// LiveWorlds returns the number of worlds still answering queries:
// NumWorlds minus quarantined. Estimators divide by this, so quarantine
// shrinks the sample instead of biasing it with empty cascades.
func (x *Index) LiveWorlds() int {
	if x.lazy != nil {
		return len(x.lazy.dir) - int(x.lazy.nQuar.Load())
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
