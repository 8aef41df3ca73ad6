package core

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"os"

	"soi/internal/atomicfile"
	"soi/internal/fault"
	"soi/internal/graph"
)

// Persistent sphere store — the paper's §8 deployment scenario: "having the
// spheres of influence precomputed and stored in an index might provide a
// direct solution to several variants of influence maximization... when the
// next campaign is run, we can again reuse the same spheres of influence."
//
// The store serializes the per-node typical cascades with their cost
// estimates; a later process loads them and runs any of the max-cover
// variants (plain, weighted, budgeted) without touching the sampler.
//
// Layout (little endian):
//
//	magic   [8]byte "SOISPH02"
//	nodes   uint32            (spheres stored for every node, in id order)
//	per node:
//	  setLen       uint32
//	  set          [setLen]int32
//	  sampleCost   float64
//	  expectedCost float64
//	crc     uint32            CRC32-C (Castagnoli) of every preceding byte
//
// SOISPH02 is the only sphere-store format; a file with any other magic is
// rejected and must be rebuilt.

var sphereMagic = [8]byte{'S', 'O', 'I', 'S', 'P', 'H', '0', '2'}

// sphereCastagnoli is the CRC32-C table for the sphere store.
var sphereCastagnoli = crc32.MakeTable(crc32.Castagnoli)

// SaveSpheres writes the results of ComputeAll as a SOISPH02 store.
// Results must be indexed by node id (results[v].Seeds == [v]), as
// ComputeAll produces.
func SaveSpheres(w io.Writer, results []Result) error {
	bw := bufio.NewWriter(w)
	h := crc32.New(sphereCastagnoli)
	body := io.MultiWriter(bw, h)
	if err := binary.Write(body, binary.LittleEndian, sphereMagic); err != nil {
		return err
	}
	if err := binary.Write(body, binary.LittleEndian, uint32(len(results))); err != nil {
		return err
	}
	for v := range results {
		r := &results[v]
		if len(r.Seeds) != 1 || r.Seeds[0] != graph.NodeID(v) {
			return fmt.Errorf("core: result %d is not the single-source sphere of node %d", v, v)
		}
		if err := writeSphereRecord(body, r); err != nil {
			return err
		}
	}
	// Footer: checksum of everything above, itself excluded.
	if err := binary.Write(bw, binary.LittleEndian, h.Sum32()); err != nil {
		return err
	}
	return bw.Flush()
}

// LoadSpheres reads a sphere store, verifying its checksum footer. Results
// are indexed by node id; timing fields are zero (they describe the
// original computation, not the load).
func LoadSpheres(r io.Reader) ([]Result, error) {
	br := bufio.NewReader(r)
	h := crc32.New(sphereCastagnoli)
	body := io.TeeReader(br, h)
	if err := readSphereMagic(body); err != nil {
		return nil, err
	}
	out, err := loadSphereBody(body)
	if err != nil {
		return nil, err
	}
	sum := h.Sum32()
	var stored uint32
	if err := binary.Read(br, binary.LittleEndian, &stored); err != nil {
		return nil, fmt.Errorf("core: read sphere checksum footer: %w", err)
	}
	if sum != stored {
		return nil, fmt.Errorf("core: sphere-store checksum mismatch: file carries %08x, payload hashes to %08x (corrupted store)", stored, sum)
	}
	if _, err := br.ReadByte(); err != io.EOF {
		return nil, fmt.Errorf("core: trailing data after sphere-store checksum footer")
	}
	return out, nil
}

// readSphereMagic consumes and checks the store's magic: any magic other
// than SOISPH02 is rejected with one error naming it.
func readSphereMagic(r io.Reader) error {
	var m [8]byte
	if _, err := io.ReadFull(r, m[:]); err != nil {
		return fmt.Errorf("core: read sphere magic: %w", err)
	}
	if m != sphereMagic {
		return fmt.Errorf("core: not a SOISPH02 sphere store (found magic %q); rebuild it with `sphere -graph g.tsv -all -store new.spheres`", m[:])
	}
	return nil
}

// loadSphereBody parses the version-independent payload.
func loadSphereBody(br io.Reader) ([]Result, error) {
	var n uint32
	if err := binary.Read(br, binary.LittleEndian, &n); err != nil {
		return nil, err
	}
	const maxNodes = 1 << 28
	if n > maxNodes {
		return nil, fmt.Errorf("core: implausible node count %d", n)
	}
	// Never trust the header for large allocations: grow incrementally so a
	// corrupted count fails on the first missing record instead of OOMing.
	out := make([]Result, 0, min32(n, 1<<16))
	for v := uint32(0); v < n; v++ {
		res, err := readSphereRecord(br, v, n)
		if err != nil {
			return nil, err
		}
		out = append(out, res)
	}
	return out, nil
}

// writeSphereRecord writes node v's sphere record — the layout's per-node
// part: the set's length, its members, and both cost estimates. The store
// and ComputeAll's checkpoint payload share it.
func writeSphereRecord(w io.Writer, r *Result) error {
	if err := binary.Write(w, binary.LittleEndian, uint32(len(r.Set))); err != nil {
		return err
	}
	if len(r.Set) > 0 {
		if err := binary.Write(w, binary.LittleEndian, r.Set); err != nil {
			return err
		}
	}
	return binary.Write(w, binary.LittleEndian, []float64{r.SampleCost, r.ExpectedCost})
}

// readSphereRecord reads and validates node v's sphere record in an n-node
// graph: members must be in range and strictly ascending, the sample cost in
// [0, 1], and the expected cost in [-1, 1]. The store and ComputeAll's
// checkpoint payload share it, so a resumed sweep can only return spheres
// the store accepts.
func readSphereRecord(br io.Reader, v, n uint32) (Result, error) {
	var setLen uint32
	if err := binary.Read(br, binary.LittleEndian, &setLen); err != nil {
		return Result{}, err
	}
	if setLen > n {
		return Result{}, fmt.Errorf("core: node %d sphere size %d exceeds node count", v, setLen)
	}
	// Never trust the header for large allocations: grow incrementally so a
	// corrupted length fails on the first missing member instead of OOMing.
	set := make([]graph.NodeID, 0, min32(setLen, 1<<14))
	prev := graph.NodeID(-1)
	for j := uint32(0); j < setLen; j++ {
		var e graph.NodeID
		if err := binary.Read(br, binary.LittleEndian, &e); err != nil {
			return Result{}, err
		}
		if e < 0 || uint32(e) >= n {
			return Result{}, fmt.Errorf("core: node %d sphere contains out-of-range member %d", v, e)
		}
		if e <= prev {
			return Result{}, fmt.Errorf("core: node %d sphere not strictly sorted", v)
		}
		prev = e
		set = append(set, e)
	}
	costs := make([]float64, 2)
	if err := binary.Read(br, binary.LittleEndian, costs); err != nil {
		return Result{}, err
	}
	sampleCost, expectedCost := costs[0], costs[1]
	if math.IsNaN(sampleCost) || sampleCost < 0 || sampleCost > 1 {
		return Result{}, fmt.Errorf("core: node %d has invalid sample cost %v", v, sampleCost)
	}
	if math.IsNaN(expectedCost) || expectedCost < -1 || expectedCost > 1 {
		return Result{}, fmt.Errorf("core: node %d has invalid expected cost %v", v, expectedCost)
	}
	return Result{
		Seeds:        []graph.NodeID{graph.NodeID(v)},
		Set:          set,
		SampleCost:   sampleCost,
		ExpectedCost: expectedCost,
	}, nil
}

func min32(a, b uint32) uint32 {
	if a < b {
		return a
	}
	return b
}

// SaveSpheresFile writes the sphere store to path atomically (temp file +
// rename + directory sync), so an interrupted save never leaves a truncated
// store behind.
func SaveSpheresFile(path string, results []Result) error {
	if err := fault.Hit(fault.StoreSave); err != nil {
		return err
	}
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return SaveSpheres(w, results)
	})
}

// LoadSpheresFile reads a sphere store from path.
func LoadSpheresFile(path string) ([]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadSpheres(f)
}

// RepairSpheresFile rewrites a sphere store whose payload still parses into
// a clean file at dst, returning the sphere count. This recovers the
// corruption classes a single trailing checksum makes fatal — a flipped or
// truncated footer, or trailing garbage — without recomputing anything.
// Payload corruption is unrecoverable (the records are not independently
// checksummed): rebuild with sphere -all -store instead.
func RepairSpheresFile(src, dst string) (int, error) {
	f, err := os.Open(src)
	if err != nil {
		return 0, err
	}
	defer f.Close()
	br := bufio.NewReader(f)
	if err := readSphereMagic(br); err != nil {
		return 0, err
	}
	out, err := loadSphereBody(br)
	if err != nil {
		return 0, fmt.Errorf("core: sphere-store payload is unrecoverable (%w); rebuild with sphere -all -store", err)
	}
	return len(out), SaveSpheresFile(dst, out)
}
