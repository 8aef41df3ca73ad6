package index

// Offline verification and repair of index files — the library half of cmd
// soifsck. Everything here is graph-free: the header records the node count,
// and the structural validators need nothing else, so a repair box does not
// have to ship the (much larger) graph the index was built from.

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/blockfile"
)

// FsckBlock is one world's verification outcome.
type FsckBlock struct {
	World int
	// Off / Len locate the world's block in the file.
	Off int64
	Len int64
	// Err is nil when the world verified clean (CRC and structural decode).
	Err error
}

// FsckReport summarizes the verification of one index file.
type FsckReport struct {
	Path     string
	Format   string // "SOIIDX03" once the header verifies, empty before
	FileSize int64
	Nodes    int
	Worlds   int // header world count
	// Blocks has one entry per world, each verified independently.
	Blocks []FsckBlock
	// FooterOK reports the whole-file checksum.
	FooterOK bool
	// Fatal is a whole-file problem that prevented per-block verification:
	// unrecognized magic, implausible header, torn or corrupt directory.
	Fatal error
}

// BadWorlds counts worlds that failed verification.
func (r *FsckReport) BadWorlds() int {
	n := 0
	for _, b := range r.Blocks {
		if b.Err != nil {
			n++
		}
	}
	return n
}

// Clean reports whether the file verified completely.
func (r *FsckReport) Clean() bool {
	return r.Fatal == nil && r.FooterOK && r.BadWorlds() == 0
}

// Fsck verifies an index file exhaustively: header, directory, every block
// checksum, every block's structural decode, and the whole-file footer. The
// returned error covers I/O only; corruption is reported in the FsckReport
// so one pass can describe every bad block instead of stopping at the first.
func Fsck(path string) (*FsckReport, error) {
	rep, _, err := fsckParse(path, false)
	return rep, err
}

// RepairFile reads src, keeps every world that verifies (block CRC and
// structural decode), and writes them to dst as a clean v03 file. Returns
// the report for src and the number of worlds kept. Repairing a file with
// zero recoverable worlds is an error: an empty index answers nothing, so
// the artifact should be rebuilt instead.
func RepairFile(src, dst string) (*FsckReport, int, error) {
	rep, entries, err := fsckParse(src, true)
	if err != nil {
		return rep, 0, err
	}
	if rep.Fatal != nil {
		return rep, 0, fmt.Errorf("index: %s is unrepairable: %w", src, rep.Fatal)
	}
	kept := make([]*worldEntry, 0, len(entries))
	for _, e := range entries {
		if e != nil {
			kept = append(kept, e)
		}
	}
	if len(kept) == 0 {
		return rep, 0, fmt.Errorf("index: no world of %s survived verification; rebuild with sphere -build-index", src)
	}
	err = atomicfile.WriteFile(dst, func(w io.Writer) error {
		_, werr := writeV3(w, uint32(rep.Nodes), kept, v3Directory(kept))
		return werr
	})
	return rep, len(kept), err
}

// fsckParse drives verification, optionally retaining the decoded entries
// (index parallel to Blocks, nil where verification failed) for RepairFile.
func fsckParse(path string, keep bool) (*FsckReport, []*worldEntry, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	rep := &FsckReport{Path: path, FileSize: int64(len(data)), FooterOK: true}
	hdr, err := readV3Header(bytes.NewReader(data), -1, int64(len(data)))
	rep.Nodes, rep.Worlds = int(hdr.nodes), int(hdr.worlds)
	if err != nil {
		rep.Fatal = err
		return rep, nil, nil
	}
	rep.Format = string(magicV3[:])

	var entries []*worldEntry
	if keep {
		entries = make([]*worldEntry, len(hdr.dir))
	}
	rep.Blocks = make([]FsckBlock, len(hdr.dir))
	for i, b := range hdr.dir {
		rep.Blocks[i] = FsckBlock{World: i, Off: b.Off, Len: int64(b.Len)}
		e, err := verifyBlock(data[b.Off:b.Off+int64(b.Len)], b, hdr.nodes, i)
		if err != nil {
			rep.Blocks[i].Err = err
			continue
		}
		if keep {
			entries[i] = &e
		}
	}
	if sum, stored := blockfile.Checksum(data[:len(data)-4]), binary.LittleEndian.Uint32(data[len(data)-4:]); sum != stored {
		rep.FooterOK = false
	}
	return rep, entries, nil
}
