// Command soifsck verifies and repairs soi on-disk artifacts: cascade index
// files (SOIIDX03, from sphere -build-index) and sphere stores (SOISPH02,
// from sphere -all -store). The format is detected from the file's magic;
// a file in any other format, retired versions included, is rejected with
// the command that rebuilds it.
//
// Verification is exhaustive: every world block of an index is checked
// independently (directory geometry, per-block CRC32-C, structural decode,
// whole-file footer), so one pass lists every bad block rather than stopping
// at the first. Repair keeps what verifies and rewrites a clean index file:
//
//	soifsck idx.bin                  # verify, summarize
//	soifsck -v idx.bin               # ... with one line per world block
//	soifsck -repair fixed.bin idx.bin
//
// A repaired index has fewer worlds than the original (the corrupt blocks
// are dropped); estimates over it carry correspondingly wider error bounds.
// For sphere stores, repair recovers payloads whose single trailing checksum
// is bad (flipped footer, trailing garbage); payload corruption requires a
// rebuild.
//
// Exit codes: 0 every file verified clean, 1 corruption was found (repair
// may still have succeeded), 2 a file could not be checked or repaired at
// all (I/O error, unrecognized format, bad usage).
package main

import (
	"flag"
	"fmt"
	"log"
	"os"

	"soi/internal/core"
	"soi/internal/index"
)

func main() {
	var (
		repair  = flag.String("repair", "", "write a repaired copy of FILE to this path (exactly one FILE)")
		verbose = flag.Bool("v", false, "print one line per world block, not just the bad ones")
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
	var magic [8]byte
	f, err := os.Open(path)
	if err == nil {
		_, err = f.Read(magic[:])
		f.Close()
	}
	if err != nil {
		log.Printf("%s: %v", path, err)
		return 2
	}
	switch string(magic[:6]) {
	case "SOIIDX":
		return checkIndex(path, repair, verbose)
	case "SOISPH":
		return checkSpheres(path, repair)
	default:
		log.Printf("%s: unrecognized magic %q (not an index or sphere store)", path, magic[:])
		return 2
	}
}

func checkIndex(path, repair string, verbose bool) int {
	var rep *index.FsckReport
	var kept int
	var err error
	if repair != "" {
		rep, kept, err = index.RepairFile(path, repair)
	} else {
		rep, err = index.Fsck(path)
	}
	if rep == nil {
		log.Printf("%s: %v", path, err)
		return 2
	}
	log.Printf("%s: %s nodes=%d worlds=%d size=%d", path, rep.Format, rep.Nodes, rep.Worlds, rep.FileSize)
	if rep.Fatal != nil {
		log.Printf("%s: FATAL: %v", path, rep.Fatal)
	}
	for _, b := range rep.Blocks {
		switch {
		case b.Err != nil:
			log.Printf("%s: world %d: off=%d len=%d CORRUPT: %v", path, b.World, b.Off, b.Len, b.Err)
		case verbose:
			log.Printf("%s: world %d: off=%d len=%d ok", path, b.World, b.Off, b.Len)
		}
	}
	if !rep.FooterOK {
		log.Printf("%s: whole-file checksum footer CORRUPT", path)
	}
	if err != nil { // repair failed
		log.Printf("%s: repair: %v", path, err)
		return 2
	}
	if repair != "" {
		log.Printf("%s: repaired to %s: kept %d of %d worlds", path, repair, kept, rep.Worlds)
	}
	if rep.Clean() {
		log.Printf("%s: clean (%d worlds)", path, rep.Worlds)
		return 0
	}
	log.Printf("%s: %d of %d worlds corrupt", path, rep.BadWorlds(), rep.Worlds)
	return 1
}

func checkSpheres(path, repair string) int {
	if repair != "" {
		n, err := core.RepairSpheresFile(path, repair)
		if err != nil {
			log.Printf("%s: repair: %v", path, err)
			return 2
		}
		log.Printf("%s: repaired to %s: %d spheres", path, repair, n)
		// Report whether the original was actually corrupt.
		if _, err := core.LoadSpheresFile(path); err != nil {
			log.Printf("%s: original was corrupt: %v", path, err)
			return 1
		}
		return 0
	}
	rs, err := core.LoadSpheresFile(path)
	if err != nil {
		log.Printf("%s: CORRUPT: %v", path, err)
		return 1
	}
	log.Printf("%s: clean (%d spheres)", path, len(rs))
	return 0
}
