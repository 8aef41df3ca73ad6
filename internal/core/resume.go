package core

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"io"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/index"
)

// sweepFingerprint keys ComputeAll checkpoints on the index
// contents and every option that affects the computed spheres.
func sweepFingerprint(x *index.Index, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("core.ComputeAll").
		Uint64(x.Fingerprint()).
		Int(int(opts.Algorithm)).
		Int(opts.CostSamples).
		Uint64(opts.CostSeed).
		Int(int(opts.Model)).
		Sum()
}

// encodeSweepPayload is ComputeAll's checkpoint payload: for every node
// marked in done, its id, its sphere record (the store's writeSphereRecord),
// and the two timing fields — so a resumed sweep reports the original
// computation's timings, not zeros.
func encodeSweepPayload(out []Result, done *checkpoint.Bitmap) ([]byte, error) {
	var buf bytes.Buffer
	for v := range out {
		if !done.Get(v) {
			continue
		}
		if err := binary.Write(&buf, binary.LittleEndian, uint32(v)); err != nil {
			return nil, err
		}
		if err := writeSphereRecord(&buf, &out[v]); err != nil {
			return nil, err
		}
		timings := []int64{int64(out[v].MedianTime), int64(out[v].CostTime)}
		if err := binary.Write(&buf, binary.LittleEndian, timings); err != nil {
			return nil, err
		}
	}
	return buf.Bytes(), nil
}

// decodeSweepPayload restores completed spheres from a checkpoint payload.
// Each record passes the sphere store's validation (readSphereRecord), so a
// resumed sweep returns only spheres the store would accept; any failure is
// checkpoint.ErrCorrupt.
func decodeSweepPayload(st *checkpoint.State, n int, out []Result) error {
	br := bytes.NewReader(st.Payload)
	seen := 0
	for {
		var id uint32
		if err := binary.Read(br, binary.LittleEndian, &id); err == io.EOF {
			break
		} else if err != nil {
			return fmt.Errorf("%w: sweep payload: %v", checkpoint.ErrCorrupt, err)
		}
		if int(id) >= n || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: sweep payload names node %d outside the done bitmap", checkpoint.ErrCorrupt, id)
		}
		res, err := readSphereRecord(br, id, uint32(n))
		if err != nil {
			return fmt.Errorf("%w: sweep payload: %v", checkpoint.ErrCorrupt, err)
		}
		timings := make([]int64, 2)
		if err := binary.Read(br, binary.LittleEndian, timings); err != nil {
			return fmt.Errorf("%w: sweep payload node %d timings: %v", checkpoint.ErrCorrupt, id, err)
		}
		if timings[0] < 0 || timings[1] < 0 {
			return fmt.Errorf("%w: sweep payload node %d has negative timings", checkpoint.ErrCorrupt, id)
		}
		res.MedianTime, res.CostTime = time.Duration(timings[0]), time.Duration(timings[1])
		out[id] = res
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: sweep payload covers %d nodes, bitmap records %d", checkpoint.ErrCorrupt, seen, st.Done.Count())
	}
	return nil
}
