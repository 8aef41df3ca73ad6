package blockfile

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
)

// The container every blockfile kind is written in (little endian):
//
//	magic   [8]byte          the kind's magic
//	nodes   uint32           node count of the graph the file describes
//	blocks  uint32           block count
//	meta    [Kind.Meta]byte  the kind's fixed header
//	dir     blocks × {off u64, len u32, crc u32, aux u32}
//	dirCRC  uint32           CRC32-C of every byte above (magic included)
//	blocks  contiguous, block i at dir[i].off
//	footer  uint32           CRC32-C of every preceding byte
//
// A kind supplies only its magic, its meta length and check, its block
// codec and its per-entry directory check; the framing above is written by
// Write, read by ReadHeader and Read, and checked and repaired by Fsck and
// Repair, for every kind alike.

// RangeNodes is the number of nodes in each block of a NodeRange kind (the
// last block holds the remainder).
const RangeNodes = 256

const (
	countsLen = 8 + 4 + 4 // magic, nodes, blocks
	footerLen = 4
	// maxNodes and maxBlocks bound the header counts before any allocation
	// trusts them.
	maxNodes  = 1 << 28
	maxBlocks = 1 << 24
)

// ErrMagic marks a file whose magic is not the one its reader expects: a
// retired version of the format, or another artifact altogether.
var ErrMagic = errors.New("blockfile: wrong magic")

// Kind is one file format on the container.
type Kind struct {
	// Name prefixes the kind's errors: "index", "sphere store", "sketch".
	Name  string
	Magic [8]byte
	// Meta is the byte length of the kind's fixed header.
	Meta int
	// NodeRange marks a kind whose block i holds the nodes
	// [i·RangeNodes, (i+1)·RangeNodes). Otherwise every block is one
	// sampled world, independent of the others, so a bad one can be
	// dropped; a node-range block cannot.
	NodeRange bool
	// Rebuild is the command that rebuilds a file of this kind; every
	// rejected magic and refused repair names it.
	Rebuild string
	// CheckMeta, if set, vets the kind's meta; an error is corruption.
	CheckMeta func(meta []byte) error
	// CheckEntry vets directory entry i against the header before any block
	// is trusted.
	CheckEntry func(h *Header, i int) error
	// Decode checks one CRC-verified block structurally. Fsck runs it on
	// every block; readers run their own decoders, which keep the result.
	Decode func(h *Header, i int, block []byte) error
}

// Header is the verified part of a file before its first block.
type Header struct {
	Kind  *Kind
	Nodes uint32
	Meta  []byte
	Dir   []BlockInfo
	// Backed reports that the file's length matched the directory, so a
	// reader may size its storage by the directory's claims, not only by
	// the blocks that have arrived.
	Backed bool
}

// HeaderLen is the offset of the directory: magic, counts and meta.
func (k *Kind) HeaderLen() int64 { return countsLen + int64(k.Meta) }

// BlocksStart is the offset of the first block of a file with n blocks:
// header, directory, directory CRC.
func (k *Kind) BlocksStart(n int) int64 { return k.HeaderLen() + int64(n)*EntrySize + 4 }

// Range returns the nodes [lo, hi) that block i of a NodeRange file of n
// nodes holds.
func Range(i, n int) (lo, hi int) { return i * RangeNodes, min((i+1)*RangeNodes, n) }

// RangeBlocks is the block count of a NodeRange file of n nodes.
func RangeBlocks(n int) int { return (n + RangeNodes - 1) / RangeNodes }

// Range returns the nodes [lo, hi) that block i of a NodeRange kind holds.
func (h *Header) Range(i int) (lo, hi int) { return Range(i, int(h.Nodes)) }

// Label names block i in errors and reports: "world 7" for an index,
// "nodes 256-511" for a node-range kind.
func (h *Header) Label(i int) string {
	if !h.Kind.NodeRange {
		return fmt.Sprintf("world %d", i)
	}
	lo, hi := h.Range(i)
	return fmt.Sprintf("nodes %d-%d", lo, hi-1)
}

// verify checks block i's checksum, computed by the caller, against the
// directory's.
func (h *Header) verify(i int, sum uint32) error {
	if sum != h.Dir[i].CRC {
		return fmt.Errorf("%w: %s block hashes to %08x, directory says %08x", ErrCorrupt, h.Label(i), sum, h.Dir[i].CRC)
	}
	return nil
}

// ReadHeader reads and verifies everything before the first block from r:
// the magic, the counts, the meta, the directory checksum, and the
// directory's geometry and per-entry sanity. It is the one header check
// behind every reader and Fsck. fileSize < 0 skips the end-of-file geometry
// check (a stream does not know its length). On error the header holds
// what was parsed so far.
func (k *Kind) ReadHeader(r io.Reader, fileSize int64) (*Header, error) {
	h := &Header{Kind: k}
	// The header is read through a growing buffer rather than a trusted
	// up-front allocation, so a forged block count fails at EOF instead of
	// allocating hundreds of MB.
	var buf bytes.Buffer
	if _, err := io.CopyN(&buf, r, int64(len(k.Magic))); err != nil {
		return h, fmt.Errorf("%s: %w: magic: %v", k.Name, ErrTruncated, err)
	}
	if m := buf.Bytes(); !bytes.Equal(m, k.Magic[:]) {
		return h, fmt.Errorf("%s: %w: found magic %q, want %s; rebuild it with `%s`", k.Name, ErrMagic, m, k.Magic[:], k.Rebuild)
	}
	if _, err := io.CopyN(&buf, r, k.HeaderLen()-int64(len(k.Magic))); err != nil {
		return h, fmt.Errorf("%s: %w: header: %v", k.Name, ErrTruncated, err)
	}
	h.Nodes = binary.LittleEndian.Uint32(buf.Bytes()[8:])
	blocks := binary.LittleEndian.Uint32(buf.Bytes()[12:])
	if h.Nodes == 0 || h.Nodes > maxNodes {
		return h, fmt.Errorf("%s: %w: implausible node count %d", k.Name, ErrCorrupt, h.Nodes)
	}
	if blocks == 0 || blocks > maxBlocks {
		return h, fmt.Errorf("%s: %w: implausible block count %d", k.Name, ErrCorrupt, blocks)
	}
	if want := RangeBlocks(int(h.Nodes)); k.NodeRange && int(blocks) != want {
		return h, fmt.Errorf("%s: %w: %d blocks for %d nodes, want %d", k.Name, ErrCorrupt, blocks, h.Nodes, want)
	}

	dirEnd := k.HeaderLen() + int64(blocks)*EntrySize
	if _, err := io.CopyN(&buf, r, dirEnd+4-k.HeaderLen()); err != nil {
		return h, fmt.Errorf("%s: %w: directory: %v", k.Name, ErrTruncated, err)
	}
	b := buf.Bytes()
	if stored, sum := binary.LittleEndian.Uint32(b[dirEnd:]), Checksum(b[:dirEnd]); stored != sum {
		return h, fmt.Errorf("%s: %w: directory checksum mismatch: file carries %08x, directory hashes to %08x", k.Name, ErrCorrupt, stored, sum)
	}
	dir, err := ParseDirectory(b[k.HeaderLen():dirEnd], int(blocks))
	if err != nil {
		return h, fmt.Errorf("%s: %w", k.Name, err)
	}
	if err := ValidateLayout(dir, k.BlocksStart(len(dir)), footerLen, fileSize); err != nil {
		return h, fmt.Errorf("%s: %w", k.Name, err)
	}
	h.Meta = b[countsLen:k.HeaderLen()]
	if k.CheckMeta != nil {
		if err := k.CheckMeta(h.Meta); err != nil {
			return h, fmt.Errorf("%s: %w: %v", k.Name, ErrCorrupt, err)
		}
	}
	h.Dir, h.Backed = dir, fileSize >= 0
	for i := range dir {
		if err := k.CheckEntry(h, i); err != nil {
			return h, fmt.Errorf("%s: %w: %s: %v", k.Name, ErrCorrupt, h.Label(i), err)
		}
	}
	return h, nil
}

// ExactLen is the CheckEntry of a NodeRange kind whose block holds
// nodeBytes per node plus auxBytes per unit of its aux word.
func ExactLen(nodeBytes, auxBytes int64) func(h *Header, i int) error {
	return func(h *Header, i int) error {
		lo, hi := h.Range(i)
		if e := h.Dir[i]; int64(e.Len) != nodeBytes*int64(hi-lo)+auxBytes*int64(e.Aux) {
			return fmt.Errorf("block is %d bytes, not %d per node and %d per aux unit for %d nodes and aux %d", e.Len, nodeBytes, auxBytes, hi-lo, e.Aux)
		}
		return nil
	}
}

// Encoder appends block i's bytes to buf and returns the extended buffer
// and the block's auxiliary directory word.
type Encoder func(buf []byte, i int) ([]byte, uint32)

// Write encodes each of n blocks once and writes a file of kind k: header,
// directory, blocks, footer. The directory comes first and records every
// block's length and checksum, so the blocks are encoded before anything is
// written, each into one reused buffer and then kept at its exact length:
// a save holds the encoded file once, never a buffer grown past it. The
// whole-file footer is combined from the header's checksum and the blocks',
// so no byte is hashed twice. It returns the directory it wrote.
func (k *Kind) Write(w io.Writer, nodes uint32, meta []byte, n int, enc Encoder) ([]BlockInfo, int64, error) {
	dir := make([]BlockInfo, n)
	blocks := make([][]byte, n)
	off := k.BlocksStart(n)
	var scratch []byte
	for i := range dir {
		var aux uint32
		scratch, aux = enc(scratch[:0], i)
		blocks[i] = bytes.Clone(scratch)
		dir[i] = BlockInfo{Off: off, Len: uint32(len(scratch)), CRC: Checksum(scratch), Aux: aux}
		off += int64(len(scratch))
	}
	buf := make([]byte, 0, k.BlocksStart(n))
	buf = append(buf, k.Magic[:]...)
	buf = binary.LittleEndian.AppendUint32(buf, nodes)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(n))
	buf = append(buf, meta...)
	for _, e := range dir {
		buf = AppendEntry(buf, e)
	}
	buf = binary.LittleEndian.AppendUint32(buf, Checksum(buf))
	sum := Checksum(buf)
	for _, e := range dir {
		sum = combine(sum, e.CRC, int64(e.Len))
	}
	bw := bufio.NewWriter(w)
	var written int64
	for _, p := range append(append([][]byte{buf}, blocks...), binary.LittleEndian.AppendUint32(nil, sum)) {
		m, err := bw.Write(p)
		if written += int64(m); err != nil {
			return dir, written, err
		}
	}
	return dir, written, bw.Flush()
}

// Read streams a file of kind k from r: the header, which check may refuse
// (nil accepts any), then every block, checked against its directory
// checksum and handed to use, then the whole-file footer; trailing bytes are
// corruption. The block slice is reused between calls, so use must copy
// what it keeps. The file is never held whole. When r is a regular file, its
// length is checked against the directory up front, and the header is
// Backed.
//
// The caller chooses the policy for a bad block. With quarantine nil the
// read is strict: a block that fails its checksum or use, or a footer that
// does not match, rejects the file. Otherwise such a block is handed to
// quarantine and the read goes on, and the footer, which any bad block
// breaks, is read but not compared. Damage to the header, the directory or
// its geometry, and truncation, reject the file under both policies.
func (k *Kind) Read(r io.Reader, check func(h *Header) error, use func(h *Header, i int, block []byte) error, quarantine func(i int, err error)) (*Header, error) {
	size := int64(-1)
	if f, ok := r.(*os.File); ok {
		if st, err := f.Stat(); err == nil && st.Mode().IsRegular() {
			if off, err := f.Seek(0, io.SeekCurrent); err == nil {
				size = st.Size() - off
			}
		}
	}
	br := bufio.NewReader(r)
	// The footer's checksum is the header's, combined with each block's as
	// it is verified, so every byte is hashed once.
	sum := crc32.New(castagnoli)
	h, err := k.ReadHeader(io.TeeReader(br, sum), size)
	if err == nil && check != nil {
		err = check(h)
	}
	if err != nil {
		return nil, err
	}
	fileSum := sum.Sum32()
	var blk bytes.Buffer
	for i, e := range h.Dir {
		blk.Reset()
		if _, err := io.CopyN(&blk, br, int64(e.Len)); err != nil {
			return nil, fmt.Errorf("%s: %w: %s block: %v", k.Name, ErrTruncated, h.Label(i), err)
		}
		crc := Checksum(blk.Bytes())
		fileSum = combine(fileSum, crc, int64(e.Len))
		err := h.verify(i, crc)
		if err != nil {
			err = fmt.Errorf("%s: %w", k.Name, err)
		} else {
			err = use(h, i, blk.Bytes())
		}
		if err != nil {
			if quarantine == nil {
				return nil, err
			}
			quarantine(i, err)
		}
	}
	var fb [footerLen]byte
	if _, err := io.ReadFull(br, fb[:]); err != nil {
		return nil, fmt.Errorf("%s: %w: footer: %v", k.Name, ErrTruncated, err)
	}
	if footer := binary.LittleEndian.Uint32(fb[:]); footer != fileSum && quarantine == nil {
		return nil, fmt.Errorf("%s: %w: checksum mismatch: file carries %08x, payload hashes to %08x", k.Name, ErrCorrupt, footer, fileSum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%s: %w: trailing data after checksum footer", k.Name, ErrCorrupt)
	}
	return h, nil
}
