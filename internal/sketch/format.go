package sketch

import (
	"bufio"
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/fault"
)

// SOISKC01 on-disk format (little endian):
//
//	magic   [8]byte "SOISKC01"
//	nodes   uint32
//	worlds  uint32            (source index worlds, quarantined included)
//	live    uint32            (worlds that contributed ranks)
//	k       uint32
//	seed    uint64            (rank-hash seed)
//	indexFP uint64            (Fingerprint of the source index)
//	off     [nodes+1]uint32   (CSR offsets; off[0] = 0, non-decreasing,
//	                           per-node count <= k)
//	ranks   [off[nodes]]uint64 (strictly ascending within each node)
//	crc     uint32            CRC32-C (Castagnoli) of every preceding byte
//
// A sketch is an estimator, so silent corruption would not crash — it
// would mis-estimate. The reader therefore validates everything it can
// structurally (offsets, per-node bounds, rank order, trailing bytes) and
// verifies the checksum unconditionally: a corrupt file fails at open,
// never at query time.

var sketchMagic = [8]byte{'S', 'O', 'I', 'S', 'K', 'C', '0', '1'}

var sketchCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// WriteTo serializes the sketch in the SOISKC01 format.
func (s *Sketch) WriteTo(w io.Writer) (int64, error) {
	cw := &countWriter{w: w}
	bw := bufio.NewWriter(cw)
	h := crc32.New(sketchCastagnoli)
	body := io.MultiWriter(bw, h)
	le := binary.LittleEndian
	buf := append(make([]byte, 0, sketchHeaderLen), sketchMagic[:]...)
	for _, u := range []uint32{uint32(s.nodes), uint32(s.worlds), uint32(s.live), uint32(s.k)} {
		buf = le.AppendUint32(buf, u)
	}
	buf = le.AppendUint64(buf, s.seed)
	buf = le.AppendUint64(buf, s.fp)
	if _, err := body.Write(buf); err != nil {
		return cw.n, err
	}
	// The arrays go out in bounded chunks through one reused buffer.
	for lo := 0; lo < len(s.off); lo += chunkValues {
		buf = buf[:0]
		for _, o := range s.off[lo:min(lo+chunkValues, len(s.off))] {
			buf = le.AppendUint32(buf, uint32(o))
		}
		if _, err := body.Write(buf); err != nil {
			return cw.n, err
		}
	}
	for lo := 0; lo < len(s.ranks); lo += chunkValues {
		buf = buf[:0]
		for _, rk := range s.ranks[lo:min(lo+chunkValues, len(s.ranks))] {
			buf = le.AppendUint64(buf, rk)
		}
		if _, err := body.Write(buf); err != nil {
			return cw.n, err
		}
	}
	// Footer: checksum of everything above, itself excluded.
	if _, err := bw.Write(le.AppendUint32(buf[:0], h.Sum32())); err != nil {
		return cw.n, err
	}
	return cw.n, bw.Flush()
}

type countWriter struct {
	w io.Writer
	n int64
}

func (c *countWriter) Write(p []byte) (int, error) {
	n, err := c.w.Write(p)
	c.n += int64(n)
	return n, err
}

const (
	// maxNodes mirrors the sphere store's plausibility cap.
	maxNodes = 1 << 28
	// sketchHeaderLen covers magic, the four counts, seed and indexFP.
	sketchHeaderLen = 8 + 4*4 + 8 + 8
	// chunkValues bounds how many offsets or ranks are encoded or decoded
	// per buffer, so neither direction holds a whole array's bytes at once.
	chunkValues = 1 << 16
)

// readChunks reads count little-endian values of width bytes each from r in
// chunks of at most chunkValues, handing each chunk's bytes to f. The
// buffer is sized by the first chunk, never by count alone, so a forged
// count costs at most one chunk before the reader runs dry.
func readChunks(r io.Reader, count uint64, width int, what string, f func(b []byte) error) error {
	buf := make([]byte, width*int(min(count, chunkValues)))
	for count > 0 {
		n := min(count, chunkValues)
		b := buf[:int(n)*width]
		if _, err := io.ReadFull(r, b); err != nil {
			return fmt.Errorf("sketch: read %s: %w", what, err)
		}
		if err := f(b); err != nil {
			return err
		}
		count -= n
	}
	return nil
}

// grow makes room for n more elements in s. When it must reallocate it at
// least doubles the capacity, but never past limit (the count the header
// claims); callers grow only for values that have already arrived, so
// storage stays within twice the bytes actually read.
func grow[T any](s []T, n, limit int) []T {
	if len(s)+n <= cap(s) {
		return s
	}
	g := make([]T, len(s), min(limit, max(2*cap(s), len(s)+n)))
	copy(g, s)
	return g
}

// Read deserializes a SOISKC01 sketch, verifying structure and checksum.
// The loaded sketch carries no telemetry; attach one with SetTelemetry.
func Read(r io.Reader) (*Sketch, error) {
	br := bufio.NewReader(r)
	h := crc32.New(sketchCastagnoli)
	body := io.TeeReader(br, h)
	le := binary.LittleEndian
	var hdr [sketchHeaderLen]byte
	if _, err := io.ReadFull(body, hdr[:len(sketchMagic)]); err != nil {
		return nil, fmt.Errorf("sketch: read magic: %w", err)
	}
	if m := hdr[:len(sketchMagic)]; !bytes.Equal(m, sketchMagic[:]) {
		return nil, fmt.Errorf("sketch: bad magic %q", m)
	}
	if _, err := io.ReadFull(body, hdr[len(sketchMagic):]); err != nil {
		return nil, fmt.Errorf("sketch: read header: %w", err)
	}
	nodes, worlds, live, k := le.Uint32(hdr[8:]), le.Uint32(hdr[12:]), le.Uint32(hdr[16:]), le.Uint32(hdr[20:])
	seed, fp := le.Uint64(hdr[24:]), le.Uint64(hdr[32:])
	if nodes > maxNodes {
		return nil, fmt.Errorf("sketch: implausible node count %d", nodes)
	}
	if live > worlds {
		return nil, fmt.Errorf("sketch: live worlds %d exceed total %d", live, worlds)
	}
	if k < 2 {
		return nil, fmt.Errorf("sketch: k %d below minimum 2", k)
	}
	// Never trust the header for large allocations: storage grows with the
	// chunks that actually arrive, so a corrupted count fails on the first
	// missing chunk instead of OOMing.
	var off []int32
	prev := uint32(0)
	err := readChunks(body, uint64(nodes)+1, 4, "offsets", func(b []byte) error {
		off = grow(off, len(b)/4, int(nodes)+1)
		for p := 0; p < len(b); p += 4 {
			o := le.Uint32(b[p:])
			v := len(off)
			if v == 0 && o != 0 {
				return fmt.Errorf("sketch: first offset %d, want 0", o)
			}
			if o < prev {
				return fmt.Errorf("sketch: offsets not monotone at node %d", v)
			}
			if o-prev > k {
				return fmt.Errorf("sketch: node %d holds %d ranks, more than k=%d", v-1, o-prev, k)
			}
			if o > math.MaxInt32 {
				return fmt.Errorf("sketch: offset %d overflows", o)
			}
			prev = o
			off = append(off, int32(o))
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	total := off[nodes]
	var ranks []uint64
	v := int32(0) // node owning the rank being read, for error messages
	var last uint64
	err = readChunks(body, uint64(total), 8, "ranks", func(b []byte) error {
		ranks = grow(ranks, len(b)/8, int(total))
		for p := 0; p < len(b); p += 8 {
			rk := le.Uint64(b[p:])
			i := int32(len(ranks))
			for off[v+1] <= i {
				v++
			}
			if i > off[v] && rk <= last {
				return fmt.Errorf("sketch: node %d ranks not strictly ascending", v)
			}
			last = rk
			ranks = append(ranks, rk)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var footer [4]byte
	if _, err := io.ReadFull(br, footer[:]); err != nil {
		return nil, fmt.Errorf("sketch: read checksum footer: %w", err)
	}
	if stored, sum := le.Uint32(footer[:]), h.Sum32(); sum != stored {
		return nil, fmt.Errorf("sketch: checksum mismatch: file carries %08x, payload hashes to %08x (corrupted sketch)", stored, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("sketch: trailing data after checksum footer")
	}
	return &Sketch{
		nodes:  int(nodes),
		worlds: int(worlds),
		live:   int(live),
		k:      int(k),
		seed:   seed,
		fp:     fp,
		off:    off,
		ranks:  ranks,
	}, nil
}

// SaveFile writes the sketch to path atomically (temp file + rename +
// directory sync), so an interrupted save never leaves a truncated sketch.
func (s *Sketch) SaveFile(path string) error {
	if err := fault.Hit(fault.SketchSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		_, err := s.WriteTo(w)
		return err
	})
}

// LoadFile reads a SOISKC01 sketch from path.
func LoadFile(path string) (*Sketch, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return Read(f)
}
