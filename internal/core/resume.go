package core

import (
	"encoding/binary"
	"fmt"
	"time"

	"soi/internal/checkpoint"
	"soi/internal/index"
)

// sweepFingerprint keys ComputeAll checkpoints on the index (whose
// fingerprint covers its graph and model) and every option that affects the
// computed spheres.
func sweepFingerprint(x *index.Index, opts Options) uint64 {
	return checkpoint.NewHasher().
		String("core.ComputeAll").
		Uint64(x.Fingerprint()).
		Int(int(opts.Algorithm)).
		Int(opts.CostSamples).
		Uint64(opts.CostSeed).
		Sum()
}

// encodeSweepPayload is ComputeAll's checkpoint payload: for every node
// marked in done, its id, its sphere record (the store's
// appendSphereRecord), and the two timing fields — so a resumed sweep
// reports the original computation's timings, not zeros.
func encodeSweepPayload(out []Result, done *checkpoint.Bitmap) ([]byte, error) {
	le := binary.LittleEndian
	var buf []byte
	for v := range out {
		if !done.Get(v) {
			continue
		}
		buf = le.AppendUint32(buf, uint32(v))
		buf = appendSphereRecord(buf, &out[v])
		buf = le.AppendUint64(buf, uint64(out[v].MedianTime))
		buf = le.AppendUint64(buf, uint64(out[v].CostTime))
	}
	return buf, nil
}

// decodeSweepPayload restores completed spheres from a checkpoint payload.
// Each record passes the sphere store's validation (decodeSphereRecord), so
// a resumed sweep returns only spheres the store would accept; any failure
// is checkpoint.ErrCorrupt.
func decodeSweepPayload(st *checkpoint.State, n int, out []Result) error {
	le := binary.LittleEndian
	data := st.Payload
	seen := 0
	for len(data) > 0 {
		if len(data) < 4 {
			return fmt.Errorf("%w: sweep payload: truncated node id", checkpoint.ErrCorrupt)
		}
		id := le.Uint32(data)
		if int(id) >= n || !st.Done.Get(int(id)) {
			return fmt.Errorf("%w: sweep payload names node %d outside the done bitmap", checkpoint.ErrCorrupt, id)
		}
		res, size, err := decodeSphereRecord(data[4:], id, uint32(n))
		if err != nil {
			return fmt.Errorf("%w: sweep payload: %v", checkpoint.ErrCorrupt, err)
		}
		data = data[4+size:]
		if len(data) < 16 {
			return fmt.Errorf("%w: sweep payload node %d timings truncated", checkpoint.ErrCorrupt, id)
		}
		median, cost := int64(le.Uint64(data)), int64(le.Uint64(data[8:]))
		if median < 0 || cost < 0 {
			return fmt.Errorf("%w: sweep payload node %d has negative timings", checkpoint.ErrCorrupt, id)
		}
		data = data[16:]
		res.MedianTime, res.CostTime = time.Duration(median), time.Duration(cost)
		out[id] = res
		seen++
	}
	if seen != st.Done.Count() {
		return fmt.Errorf("%w: sweep payload covers %d nodes, bitmap records %d", checkpoint.ErrCorrupt, seen, st.Done.Count())
	}
	return nil
}
