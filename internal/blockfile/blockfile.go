// Package blockfile is the shared substrate for block-structured artifact
// files: one container format (header, fixed-width block directory with
// per-block CRC32-C checksums, blocks, footer), its streaming writer and
// reader, and offline verification and repair.
//
// The directory comes first and is verified first, so a truncated or torn
// file is detected from the directory geometry before any block is trusted.
// Every block is then checked against its own directory checksum, which makes
// corruption a property of one block rather than of the whole file: a strict
// reader rejects the file at the first bad block, while the index's serving
// load quarantines that one world and keeps the rest.
//
// Blocks are read eagerly. The paper's Algorithm 2 extracts one cascade from
// every indexed world, and the index spread estimate averages over all of
// them, so every index-backed query reads every world block. On an
// 8,000-node shard with 96 worlds (2-vCPU host), one spread or sphere query
// over a memory-mapped open faulted 96 of 96 world blocks in: the first
// query took 32-40 ms, as long as an eager load (32-41 ms), and the decoded
// worlds then stayed on the heap, so mapping saved neither time nor memory.
//
// Safety invariants:
//
//   - Blocks are only ever used after their CRC32-C matches the directory.
//   - No header count is trusted for an allocation before the bytes it
//     describes are known to be present.
//
// The index (SOIIDX05), the sphere store (SOISPH03) and the sketch
// (SOISKC02) are the three kinds on the container; only this package writes
// or parses their framing, and fsck.go verifies and repairs all three.
package blockfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
)

// Typed corruption classes. Format code wraps these so callers can
// distinguish "the bytes are wrong" from "the file is short" without string
// matching.
var (
	// ErrCorrupt marks bytes that are present but fail a checksum or
	// structural validation.
	ErrCorrupt = errors.New("blockfile: corrupt")
	// ErrTruncated marks a file shorter than its directory promises (torn
	// write or truncation).
	ErrTruncated = errors.New("blockfile: truncated")
)

// castagnoli is the CRC32-C polynomial table shared by every blockfile
// format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// x2n[k] is x^(2^k) modulo the CRC32-C polynomial, for combine.
var x2n = func() (t [32]uint32) {
	p := uint32(1) << 30 // x^1
	for k := range t {
		t[k] = p
		p = mulModP(p, p)
	}
	return t
}()

// mulModP multiplies a and b modulo the CRC32-C polynomial, in the
// reflected bit order of the checksum (bit 31 is x^0).
func mulModP(a, b uint32) uint32 {
	var p uint32
	for m := uint32(1) << 31; m != 0; m >>= 1 {
		if a&m != 0 {
			p ^= b
		}
		if b&1 != 0 {
			b = b>>1 ^ crc32.Castagnoli
		} else {
			b >>= 1
		}
	}
	return p
}

// combine returns the CRC32-C of A||B from crcA = Checksum(A), crcB =
// Checksum(B) and lenB = len(B), without reading either: the checksum is
// linear, so A's contribution is crcA shifted past lenB zero bytes. It lets
// a reader derive the whole-file footer from the checksums it computes per
// block anyway, hashing every byte once.
func combine(crcA, crcB uint32, lenB int64) uint32 {
	shift := uint32(1) << 31 // x^0
	for k := 3; lenB != 0; k, lenB = k+1, lenB>>1 {
		if lenB&1 != 0 {
			shift = mulModP(x2n[k&31], shift)
		}
	}
	return mulModP(shift, crcA) ^ crcB
}

// BlockInfo is one fixed-width directory entry: where a block lives, how
// long it is, its CRC32-C, and a format-specific auxiliary word (the index
// stores the world's component count there).
type BlockInfo struct {
	Off int64  // absolute file offset of the block's first byte
	Len uint32 // block length in bytes
	CRC uint32 // CRC32-C of the block bytes
	Aux uint32 // format-specific (the index: component count)
}

// EntrySize is the serialized size of one directory entry.
const EntrySize = 8 + 4 + 4 + 4

// AppendEntry serializes e onto buf (little endian, fixed width).
func AppendEntry(buf []byte, e BlockInfo) []byte {
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Off))
	buf = binary.LittleEndian.AppendUint32(buf, e.Len)
	buf = binary.LittleEndian.AppendUint32(buf, e.CRC)
	buf = binary.LittleEndian.AppendUint32(buf, e.Aux)
	return buf
}

// ParseDirectory decodes n fixed-width entries from data, which must be
// exactly n*EntrySize bytes.
func ParseDirectory(data []byte, n int) ([]BlockInfo, error) {
	if len(data) != n*EntrySize {
		return nil, fmt.Errorf("%w: directory is %d bytes, want %d for %d entries", ErrCorrupt, len(data), n*EntrySize, n)
	}
	dir := make([]BlockInfo, n)
	for i := range dir {
		p := data[i*EntrySize:]
		off := binary.LittleEndian.Uint64(p)
		if off > 1<<62 {
			return nil, fmt.Errorf("%w: directory entry %d has implausible offset %d", ErrCorrupt, i, off)
		}
		dir[i] = BlockInfo{
			Off: int64(off),
			Len: binary.LittleEndian.Uint32(p[8:]),
			CRC: binary.LittleEndian.Uint32(p[12:]),
			Aux: binary.LittleEndian.Uint32(p[16:]),
		}
	}
	return dir, nil
}

// ValidateLayout checks directory geometry before any block is trusted:
// blocks must be contiguous starting at blocksStart, and the last block plus
// the footer must end exactly at fileSize. This is the torn-file detector —
// a truncated artifact fails here, not with a fault mid-query. fileSize < 0
// skips the end-of-file check (streaming readers that do not know the size).
func ValidateLayout(dir []BlockInfo, blocksStart, footerLen, fileSize int64) error {
	next := blocksStart
	for i, e := range dir {
		if e.Off != next {
			return fmt.Errorf("%w: block %d starts at offset %d, want %d (directory not contiguous)", ErrCorrupt, i, e.Off, next)
		}
		next += int64(e.Len)
	}
	if fileSize >= 0 {
		if want := next + footerLen; want != fileSize {
			if fileSize < want {
				return fmt.Errorf("%w: file is %d bytes, directory promises %d", ErrTruncated, fileSize, want)
			}
			return fmt.Errorf("%w: %d trailing bytes after the last block and footer", ErrCorrupt, fileSize-want)
		}
	}
	return nil
}
