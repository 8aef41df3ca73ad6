package blockfile

// Offline verification and repair of every blockfile kind — the library
// half of cmd soifsck. Everything here is graph-free: the header records
// the node count and the kinds' structural checks need nothing else, so a
// repair box does not have to ship the (much larger) graph.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"soi/internal/atomicfile"
)

// Report is the outcome of verifying one file.
type Report struct {
	FileSize int64
	// Header is the part of the header that parsed; its Kind is nil when
	// the magic named none of the kinds asked for.
	*Header
	// Errs has one entry per block, nil where the block verified (checksum
	// and structural decode).
	Errs []error
	// FooterOK reports the whole-file checksum.
	FooterOK bool
	// Trailing counts bytes after the footer the directory places.
	Trailing int64
	// Fatal is a whole-file problem that prevented per-block verification:
	// unrecognized magic, implausible header, torn or corrupt directory.
	Fatal error
}

// Bad counts the blocks that failed verification.
func (r *Report) Bad() int {
	n := 0
	for _, err := range r.Errs {
		if err != nil {
			n++
		}
	}
	return n
}

// Clean reports whether the file verified completely.
func (r *Report) Clean() bool {
	return r.Fatal == nil && r.FooterOK && r.Trailing == 0 && r.Bad() == 0
}

// Fsck verifies a file exhaustively: header, directory, every block's
// checksum and structural decode, the whole-file footer and trailing bytes.
// Given one kind it reads the file as that kind; given several, as the one
// whose magic shares the file's six-byte family prefix, so that a retired
// version is named with its rebuild command. The returned error covers I/O
// only; corruption is reported in the Report, so one pass describes every
// bad block instead of stopping at the first.
func Fsck(path string, kinds ...*Kind) (*Report, error) {
	rep, _, err := fsck(path, kinds)
	return rep, err
}

// Repair verifies src and writes what verifies to dst as a clean file:
// footer damage and trailing bytes are rewritten away, and an index's bad
// worlds are dropped. A bad block of a NodeRange kind cannot be dropped, so
// such a file is refused with its rebuild command, as is an index with no
// world left. It returns src's report and the number of blocks written.
func Repair(src, dst string, kinds ...*Kind) (*Report, int, error) {
	rep, blocks, err := fsck(src, kinds)
	if err != nil {
		return rep, 0, err
	}
	if rep.Fatal != nil {
		return rep, 0, fmt.Errorf("%s is unrepairable: %w", src, rep.Fatal)
	}
	k := rep.Kind
	var kept [][]byte
	var aux []uint32
	for i, b := range blocks {
		if b == nil {
			if k.NodeRange {
				return rep, 0, fmt.Errorf("%s: %s is corrupt and a node-range block cannot be dropped; rebuild the file with `%s`", k.Name, rep.Label(i), k.Rebuild)
			}
			continue
		}
		kept = append(kept, b)
		aux = append(aux, rep.Dir[i].Aux)
	}
	if len(kept) == 0 {
		return rep, 0, fmt.Errorf("%s: no block of %s survived verification; rebuild it with `%s`", k.Name, src, k.Rebuild)
	}
	err = atomicfile.WriteFile(dst, func(w io.Writer) error {
		_, _, err := k.Write(w, rep.Nodes, rep.Meta, len(kept), func(buf []byte, i int) ([]byte, uint32) { return append(buf, kept[i]...), aux[i] })
		return err
	})
	return rep, len(kept), err
}

// fsck drives verification and also returns every block that verified
// (nil where one did not), for Repair.
func fsck(path string, kinds []*Kind) (*Report, [][]byte, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rep := &Report{FileSize: int64(len(data)), Header: &Header{}}
	if len(kinds) == 1 {
		rep.Header.Kind = kinds[0]
	}
	for _, k := range kinds {
		if len(data) >= 6 && bytes.Equal(data[:6], k.Magic[:6]) {
			rep.Header.Kind = k
		}
	}
	k := rep.Kind
	if k == nil {
		rep.Fatal = fmt.Errorf("%w: unrecognized magic %q", ErrMagic, data[:min(len(data), 8)])
		return rep, nil, nil
	}
	rep.Header, rep.Fatal = k.ReadHeader(bytes.NewReader(data), -1)
	if rep.Fatal != nil {
		return rep, nil, nil
	}
	last := rep.Dir[len(rep.Dir)-1] // a header holds at least one block
	end := last.Off + int64(last.Len) + footerLen
	if rep.Trailing = rep.FileSize - end; rep.Trailing < 0 {
		rep.Fatal = fmt.Errorf("%s: %w: file is %d bytes, directory promises %d", k.Name, ErrTruncated, rep.FileSize, end)
		return rep, nil, nil
	}
	blocks := make([][]byte, len(rep.Dir))
	rep.Errs = make([]error, len(rep.Dir))
	sum := Checksum(data[:k.BlocksStart(len(rep.Dir))])
	for i, e := range rep.Dir {
		b := data[e.Off : e.Off+int64(e.Len)]
		crc := Checksum(b)
		sum = combine(sum, crc, int64(e.Len))
		err := rep.verify(i, crc)
		if err == nil {
			err = k.Decode(rep.Header, i, b)
		}
		if rep.Errs[i] = err; err == nil {
			blocks[i] = b
		}
	}
	rep.FooterOK = binary.LittleEndian.Uint32(data[end-footerLen:]) == sum
	return rep, blocks, nil
}
