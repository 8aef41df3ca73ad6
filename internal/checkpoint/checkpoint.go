// Package checkpoint is the crash-safe execution layer under every
// long-running compute path in the library (index building, the all-nodes
// typical-cascade sweep, Monte-Carlo spread estimation, RR-set sampling).
//
// Each of those paths decomposes into independent, deterministically seeded
// units (worlds, nodes, trials, RR sets). A checkpoint file records which
// units are complete — a bitmap — plus a path-specific payload holding the
// partial accumulators for the completed units. The file is rewritten
// periodically and atomically; a crash, OOM-kill, or cancellation therefore
// loses at most one flush interval of work, and a restart with the same
// graph, parameters, and RNG seed resumes from the bitmap and produces
// results bit-identical to an uninterrupted run (unit i depends only on its
// own split generator, never on scheduling order).
//
// Stale checkpoints are rejected, not silently resumed: the file is keyed by
// a fingerprint of the graph, the parameters, and the seed, and a mismatch
// surfaces as ErrStale. Corruption (truncation, bit flips) is caught by a
// CRC32-C footer and surfaces as ErrCorrupt.
//
// # File format
//
// Layout of "SOICKP01" (little endian):
//
//	magic       [8]byte  "SOICKP01"
//	fingerprint uint64   caller-computed key (graph + params + seed)
//	units       uint32   total number of work units
//	done        uint32   population count of the bitmap (validated on load)
//	bitmap      [ceil(units/8)]byte  completed-unit bitmap, LSB-first
//	payloadLen  uint64
//	payload     [payloadLen]byte     path-specific partial accumulators
//	crc         uint32   CRC32-C (Castagnoli) of every preceding byte
package checkpoint

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"hash/fnv"
	"io"
	"math"
	"math/bits"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/fault"
	"soi/internal/graph"
)

var magic = [8]byte{'S', 'O', 'I', 'C', 'K', 'P', '0', '1'}

// castagnoli is the same CRC32-C polynomial the index and sphere stores use.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

var (
	// ErrStale marks a checkpoint whose fingerprint (or unit count) does not
	// match the current run: the graph, parameters, or seed changed since it
	// was written. Resuming from it would silently mix incompatible partial
	// work, so it is rejected instead.
	ErrStale = errors.New("checkpoint: stale (fingerprint mismatch)")
	// ErrCorrupt marks a checkpoint that fails structural validation or its
	// CRC32-C footer.
	ErrCorrupt = errors.New("checkpoint: corrupt")
)

// Bitmap is a fixed-size completed-unit set.
type Bitmap struct {
	words []uint64
	n     int
}

// NewBitmap returns an empty bitmap over n units.
func NewBitmap(n int) *Bitmap {
	return &Bitmap{words: make([]uint64, (n+63)/64), n: n}
}

// Len returns the number of units.
func (b *Bitmap) Len() int { return b.n }

// Get reports whether unit i is marked. A nil Bitmap is empty.
func (b *Bitmap) Get(i int) bool { return b != nil && b.words[i>>6]&(1<<(uint(i)&63)) != 0 }

// Set marks unit i. Not synchronized; the Runner serializes access.
func (b *Bitmap) Set(i int) { b.words[i>>6] |= 1 << (uint(i) & 63) }

// Count returns the number of marked units.
func (b *Bitmap) Count() int {
	c := 0
	for _, w := range b.words {
		c += bits.OnesCount64(w)
	}
	return c
}

// Clone returns an independent copy.
func (b *Bitmap) Clone() *Bitmap {
	return &Bitmap{words: append([]uint64(nil), b.words...), n: b.n}
}

// State is a loaded checkpoint: which units were complete and the payload
// bytes the path-specific decoder turns back into partial accumulators.
type State struct {
	Done    *Bitmap
	Payload []byte
}

// Save writes a checkpoint atomically (temp file + rename + directory sync).
// payload holds the partial accumulators for the units marked in done.
func Save(path string, fingerprint uint64, done *Bitmap, payload []byte) error {
	if err := fault.Hit(fault.CheckpointFlush); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		bw := bufio.NewWriter(w)
		h := crc32.New(castagnoli)
		body := io.MultiWriter(bw, h)
		for _, v := range []any{
			magic,
			fingerprint,
			uint32(done.Len()),
			uint32(done.Count()),
		} {
			if err := binary.Write(body, binary.LittleEndian, v); err != nil {
				return err
			}
		}
		if err := binary.Write(body, binary.LittleEndian, bitmapBytes(done)); err != nil {
			return err
		}
		if err := binary.Write(body, binary.LittleEndian, uint64(len(payload))); err != nil {
			return err
		}
		if _, err := body.Write(payload); err != nil {
			return err
		}
		if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
			return err
		}
		return bw.Flush()
	})
}

// Load reads the checkpoint at path for a run with the given fingerprint and
// unit count. A missing file returns (nil, nil) — start fresh. A fingerprint
// or unit-count mismatch returns ErrStale; truncation, garbage, or a checksum
// mismatch returns ErrCorrupt.
func Load(path string, fingerprint uint64, units int) (*State, error) {
	if err := fault.Hit(fault.CheckpointLoad); err != nil {
		return nil, err
	}
	f, err := os.Open(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	st, err := Read(f, fingerprint, units)
	if err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return st, nil
}

// Read parses a checkpoint stream (see Load for the error contract).
func Read(r io.Reader, fingerprint uint64, units int) (*State, error) {
	br := bufio.NewReader(r)
	h := crc32.New(castagnoli)
	body := io.TeeReader(br, h)
	var m [8]byte
	if err := binary.Read(body, binary.LittleEndian, &m); err != nil {
		return nil, fmt.Errorf("%w: read magic: %v", ErrCorrupt, err)
	}
	if m != magic {
		return nil, fmt.Errorf("%w: bad magic %q", ErrCorrupt, m[:])
	}
	var fp uint64
	var gotUnits, doneCount uint32
	if err := binary.Read(body, binary.LittleEndian, &fp); err != nil {
		return nil, fmt.Errorf("%w: read fingerprint: %v", ErrCorrupt, err)
	}
	if err := binary.Read(body, binary.LittleEndian, &gotUnits); err != nil {
		return nil, fmt.Errorf("%w: read unit count: %v", ErrCorrupt, err)
	}
	if err := binary.Read(body, binary.LittleEndian, &doneCount); err != nil {
		return nil, fmt.Errorf("%w: read done count: %v", ErrCorrupt, err)
	}
	if fp != fingerprint {
		return nil, fmt.Errorf("%w: checkpoint written for fingerprint %016x, run has %016x", ErrStale, fp, fingerprint)
	}
	if int(gotUnits) != units {
		return nil, fmt.Errorf("%w: checkpoint covers %d units, run has %d", ErrStale, gotUnits, units)
	}
	raw := make([]byte, (units+7)/8)
	if _, err := io.ReadFull(body, raw); err != nil {
		return nil, fmt.Errorf("%w: read bitmap: %v", ErrCorrupt, err)
	}
	done := bitmapFromBytes(raw, units)
	if done == nil {
		return nil, fmt.Errorf("%w: bitmap has bits beyond unit count", ErrCorrupt)
	}
	if done.Count() != int(doneCount) {
		return nil, fmt.Errorf("%w: bitmap population %d != recorded %d", ErrCorrupt, done.Count(), doneCount)
	}
	var payloadLen uint64
	if err := binary.Read(body, binary.LittleEndian, &payloadLen); err != nil {
		return nil, fmt.Errorf("%w: read payload length: %v", ErrCorrupt, err)
	}
	// The payload is bounded by what a flush could have written; refuse
	// headers demanding absurd allocations (the CRC would catch them too,
	// but only after the allocation).
	const maxPayload = 1 << 40
	if payloadLen > maxPayload {
		return nil, fmt.Errorf("%w: implausible payload length %d", ErrCorrupt, payloadLen)
	}
	payload, err := readAllN(body, payloadLen)
	if err != nil {
		return nil, fmt.Errorf("%w: read payload: %v", ErrCorrupt, err)
	}
	sum := h.Sum32()
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("%w: read checksum footer: %v", ErrCorrupt, err)
	}
	if sum != stored {
		return nil, fmt.Errorf("%w: checksum mismatch: file carries %08x, payload hashes to %08x", ErrCorrupt, stored, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("%w: trailing data after checksum footer", ErrCorrupt)
	}
	return &State{Done: done, Payload: payload}, nil
}

// readAllN reads exactly n bytes without trusting n for the initial
// allocation (a corrupted length then fails on the first missing chunk
// instead of OOMing).
func readAllN(r io.Reader, n uint64) ([]byte, error) {
	const chunk = 1 << 20
	buf := make([]byte, 0, min64(n, chunk))
	for uint64(len(buf)) < n {
		next := min64(n-uint64(len(buf)), chunk)
		start := len(buf)
		buf = append(buf, make([]byte, next)...)
		if _, err := io.ReadFull(r, buf[start:]); err != nil {
			return nil, err
		}
	}
	return buf, nil
}

func min64(a, b uint64) uint64 {
	if a < b {
		return a
	}
	return b
}

func bitmapBytes(b *Bitmap) []byte {
	out := make([]byte, (b.n+7)/8)
	for i, w := range b.words {
		var tmp [8]byte
		binary.LittleEndian.PutUint64(tmp[:], w)
		copy(out[i*8:], tmp[:])
	}
	return out
}

// bitmapFromBytes rebuilds a bitmap, rejecting set bits at positions >= n.
func bitmapFromBytes(raw []byte, n int) *Bitmap {
	b := NewBitmap(n)
	for i, by := range raw {
		for j := 0; j < 8; j++ {
			if by&(1<<uint(j)) != 0 {
				pos := i*8 + j
				if pos >= n {
					return nil
				}
				b.Set(pos)
			}
		}
	}
	return b
}

// Remove deletes the checkpoint at path; a missing file is not an error.
func Remove(path string) error {
	err := os.Remove(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil
	}
	return err
}

// Hasher accumulates a run fingerprint over the graph, the parameters, and
// the RNG seed. It is FNV-1a over the binary encoding of everything fed in,
// so any change to any input — an edge, a probability, a sample count, a
// seed — yields a different fingerprint and makes old checkpoints ErrStale.
type Hasher struct {
	h   interface{ Sum64() uint64 }
	w   io.Writer
	buf [8]byte
}

// NewHasher returns an empty fingerprint hasher.
func NewHasher() *Hasher {
	h := fnv.New64a()
	return &Hasher{h: h, w: h}
}

// Uint64 feeds one 64-bit value.
func (f *Hasher) Uint64(v uint64) *Hasher {
	binary.LittleEndian.PutUint64(f.buf[:], v)
	f.w.Write(f.buf[:])
	return f
}

// Int feeds one integer.
func (f *Hasher) Int(v int) *Hasher { return f.Uint64(uint64(int64(v))) }

// Bool feeds one boolean.
func (f *Hasher) Bool(v bool) *Hasher {
	if v {
		return f.Uint64(1)
	}
	return f.Uint64(0)
}

// Float64 feeds one float (by bit pattern).
func (f *Hasher) Float64(v float64) *Hasher { return f.Uint64(math.Float64bits(v)) }

// String feeds a length-prefixed string.
func (f *Hasher) String(s string) *Hasher {
	f.Int(len(s))
	io.WriteString(f.w, s)
	return f
}

// Int32s feeds a length-prefixed int32 slice.
func (f *Hasher) Int32s(v []int32) *Hasher {
	f.Int(len(v))
	binary.Write(f.w, binary.LittleEndian, v)
	return f
}

// Nodes feeds a node-id slice.
func (f *Hasher) Nodes(ids []graph.NodeID) *Hasher {
	f.Int(len(ids))
	for _, v := range ids {
		f.Uint64(uint64(int64(v)))
	}
	return f
}

// Graph feeds the full structure of g: node count, CSR adjacency, and every
// edge probability. Linear in |E|; a million-edge graph hashes in
// milliseconds, which is noise next to the compute being checkpointed.
func (f *Hasher) Graph(g *graph.Graph) *Hasher {
	f.Int(g.NumNodes())
	f.Int(g.NumEdges())
	var buf bytes.Buffer
	for u := 0; u < g.NumNodes(); u++ {
		lo, hi := g.EdgeRange(graph.NodeID(u))
		f.Int(int(hi - lo))
		buf.Reset()
		for i := lo; i < hi; i++ {
			binary.Write(&buf, binary.LittleEndian, int32(g.EdgeTo(i)))
			binary.Write(&buf, binary.LittleEndian, g.EdgeProb(i))
		}
		f.w.Write(buf.Bytes())
	}
	return f
}

// Sum returns the fingerprint.
func (f *Hasher) Sum() uint64 { return f.h.Sum64() }
