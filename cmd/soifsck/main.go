// Command soifsck verifies and repairs soi on-disk artifacts: cascade index
// files (SOIIDX05, from sphere -build-index), sphere stores (SOISPH03, from
// sphere -all -store) and sketches (SOISKC02, from sphere -sketch-out). All
// three are written in the one blockfile container and checked by one loop;
// the kind is detected from the file's magic. A file in any other format,
// retired versions included, is rejected with the command that rebuilds it.
//
// Verification is exhaustive: every block is checked independently
// (directory geometry, per-block CRC32-C, structural decode, whole-file
// footer), so one pass lists every bad block rather than stopping at the
// first. An index block is one world; a store or sketch block is a range of
// nodes. Repair keeps what verifies and rewrites a clean file:
//
//	soifsck idx.bin                  # verify, summarize
//	soifsck -v idx.bin               # ... with one line per block
//	soifsck -repair fixed.bin idx.bin
//
// An index's summary names its model and graph fingerprint. A repaired
// index has fewer worlds than the original (the corrupt blocks are
// dropped); estimates over it carry correspondingly wider error bounds.
// A node-range block cannot be dropped, so a store or sketch with a bad
// block is refused and must be rebuilt; footer damage and trailing bytes
// are rewritten clean for every kind.
//
// Exit codes: 0 every file verified clean, 1 corruption was found (repair
// may still have succeeded), 2 a file could not be checked or repaired at
// all (I/O error, unrecognized format, unrepairable damage, bad usage).
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"

	"soi/internal/blockfile"
	"soi/internal/core"
	"soi/internal/index"
	"soi/internal/sketch"
)

// kinds are the formats soifsck recognizes.
var kinds = []*blockfile.Kind{index.FileKind, core.StoreKind, sketch.FileKind}

func main() {
	var (
		repair  = flag.String("repair", "", "write a repaired copy of FILE to this path (exactly one FILE)")
		verbose = flag.Bool("v", false, "print one line per block, not just the bad ones")
	)
	flag.Usage = func() {
		fmt.Fprintf(os.Stderr, "usage: soifsck [-v] FILE...\n       soifsck -repair OUT FILE\n")
		flag.PrintDefaults()
	}
	flag.Parse()
	log.SetFlags(0)
	log.SetPrefix("soifsck: ")
	if flag.NArg() == 0 || (*repair != "" && flag.NArg() != 1) {
		flag.Usage()
		os.Exit(2)
	}

	exit := 0
	for _, path := range flag.Args() {
		code := checkFile(path, *repair, *verbose)
		if code > exit {
			exit = code
		}
	}
	os.Exit(exit)
}

// checkFile verifies (and optionally repairs) one file, returning its exit
// code contribution.
func checkFile(path, repair string, verbose bool) int {
	var rep *blockfile.Report
	var kept int
	var err error
	if repair != "" {
		rep, kept, err = blockfile.Repair(path, repair, kinds...)
	} else {
		rep, err = blockfile.Fsck(path, kinds...)
	}
	if rep == nil {
		log.Printf("%s: %v", path, err)
		return 2
	}
	if rep.Fatal != nil {
		log.Printf("%s: FATAL: %v", path, rep.Fatal)
		if errors.Is(rep.Fatal, blockfile.ErrMagic) || repair != "" {
			return 2
		}
		return 1
	}
	unit := "worlds"
	if rep.Kind.NodeRange {
		unit = "blocks"
	}
	inputs := ""
	if rep.Kind == index.FileKind {
		fp, model := index.ParseMeta(rep.Meta)
		inputs = fmt.Sprintf(" model=%s graph=%016x", model, fp)
	}
	log.Printf("%s: %s nodes=%d %s=%d%s size=%d", path, rep.Kind.Magic[:], rep.Nodes, unit, len(rep.Dir), inputs, rep.FileSize)
	for i, berr := range rep.Errs {
		b := rep.Dir[i]
		switch {
		case berr != nil:
			log.Printf("%s: %s: off=%d len=%d CORRUPT: %v", path, rep.Label(i), b.Off, b.Len, berr)
		case verbose:
			log.Printf("%s: %s: off=%d len=%d ok", path, rep.Label(i), b.Off, b.Len)
		}
	}
	if !rep.FooterOK {
		log.Printf("%s: whole-file checksum footer CORRUPT", path)
	}
	if rep.Trailing > 0 {
		log.Printf("%s: %d trailing bytes after the footer CORRUPT", path, rep.Trailing)
	}
	if err != nil { // repair failed
		log.Printf("%s: repair: %v", path, err)
		return 2
	}
	if repair != "" {
		log.Printf("%s: repaired to %s: kept %d of %d %s", path, repair, kept, len(rep.Dir), unit)
	}
	if rep.Clean() {
		log.Printf("%s: clean (%d %s)", path, len(rep.Dir), unit)
		return 0
	}
	log.Printf("%s: %d of %d %s corrupt", path, rep.Bad(), len(rep.Dir), unit)
	return 1
}
