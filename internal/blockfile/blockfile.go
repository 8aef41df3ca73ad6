// Package blockfile is the shared substrate for block-structured, memory-
// mapped artifact files: one container format (header, fixed-width block
// directory with per-block CRC32-C checksums, blocks, footer), its
// streaming writer and readers, offline verification and repair, and a
// bounds-checked read-only window over a file.
//
// The design target is "huge artifact, query touches a sliver": a reader
// maps the file once, verifies only the (small) directory up front, and
// faults individual blocks in on demand, each verified against its directory
// checksum on first touch. A corrupt block therefore damages only itself —
// the artifact degrades instead of failing closed — and a truncated or torn
// file is detected from the directory geometry before any block is trusted.
//
// Safety invariants:
//
//   - Every access to the mapping goes through Window.Range / Copy,
//     which bounds-check against the size captured at open. The raw mapping
//     is never handed out.
//   - Copy copies the block out of the mapping under
//     debug.SetPanicOnFault, so a file shrunk behind our back (the one case
//     bounds checks cannot see) surfaces as an ErrTruncated error instead of
//     a SIGBUS-killed process.
//   - Blocks are only ever used after their CRC32-C matches the directory.
//
// The index (SOIIDX03), the sphere store (SOISPH03) and the sketch
// (SOISKC02) are the three kinds on the container; only this package writes
// or parses their framing, and fsck.go verifies and repairs all three.
package blockfile

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"runtime/debug"
)

// Typed corruption classes. Format code wraps these so callers can
// distinguish "the bytes are wrong" from "the file is short" without string
// matching.
var (
	// ErrCorrupt marks bytes that are present but fail a checksum or
	// structural validation.
	ErrCorrupt = errors.New("blockfile: corrupt")
	// ErrTruncated marks a file shorter than its directory promises (torn
	// write, truncation, or a shrink under an established mapping).
	ErrTruncated = errors.New("blockfile: truncated")
)

// castagnoli is the CRC32-C polynomial table shared by every blockfile
// format.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Checksum returns the CRC32-C of data.
func Checksum(data []byte) uint32 { return crc32.Checksum(data, castagnoli) }

// BlockInfo is one fixed-width directory entry: where a block lives, how
// long it is, its CRC32-C, and a format-specific auxiliary word (the index
// stores the world's component count there, so consumers can size scratch
// buffers without faulting the block in).
type BlockInfo struct {
	Off int64  // absolute file offset of the block's first byte
	Len uint32 // block length in bytes
	CRC uint32 // CRC32-C of the block bytes
	Aux uint32 // format-specific (SOIIDX03: component count)
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

// Window is a bounds-checked, read-only view of a file, memory-mapped where
// the platform supports it and heap-buffered otherwise. It is safe for
// concurrent readers.
type Window struct {
	data   []byte
	mapped bool
	closer func() error
}

// Size returns the window length (the file size captured at open).
func (w *Window) Size() int64 { return int64(len(w.data)) }

// Mapped reports whether the window is an mmap (false: heap fallback).
func (w *Window) Mapped() bool { return w.mapped }

// Range returns the subslice [off, off+n) of the window, bounds-checked
// against the size captured at open — an out-of-range request is an
// ErrTruncated error, never a fault. The returned slice aliases the mapping;
// callers that keep bytes must copy (or use Copy, which does).
func (w *Window) Range(off, n int64) ([]byte, error) {
	if off < 0 || n < 0 || off+n < off || off+n > int64(len(w.data)) {
		return nil, fmt.Errorf("%w: range [%d,+%d) outside window of %d bytes", ErrTruncated, off, n, len(w.data))
	}
	return w.data[off : off+n : off+n], nil
}

// Copy copies the block [off, off+n) out of the window. The copy runs under
// debug.SetPanicOnFault, so even a file shrunk after mapping (bounds checks
// hold, pages gone) comes back as an ErrTruncated error rather than a
// SIGBUS. The returned slice is heap-owned: it stays valid after Close and
// holds no reference into the mapping. Callers verify it against its
// directory checksum before use.
func (w *Window) Copy(off int64, n uint32) (out []byte, err error) {
	src, err := w.Range(off, int64(n))
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			out = nil
			err = fmt.Errorf("%w: memory fault reading block [%d,+%d): %v", ErrTruncated, off, n, r)
		}
	}()
	prev := debug.SetPanicOnFault(true)
	defer debug.SetPanicOnFault(prev)
	out = make([]byte, n)
	copy(out, src)
	return out, nil
}

// Close releases the mapping (or buffer). Blocks previously returned by
// Copy remain valid; slices from Range do not.
func (w *Window) Close() error {
	if w.closer == nil {
		return nil
	}
	c := w.closer
	w.closer = nil
	w.data = nil
	return c()
}
