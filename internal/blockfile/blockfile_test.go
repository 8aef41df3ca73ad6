package blockfile

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

func writeTemp(t *testing.T, data []byte) string {
	t.Helper()
	p := filepath.Join(t.TempDir(), "win.bin")
	if err := os.WriteFile(p, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return p
}

func TestDirectoryRoundTrip(t *testing.T) {
	dir := []BlockInfo{
		{Off: 100, Len: 40, CRC: 0xdeadbeef, Aux: 3},
		{Off: 140, Len: 0, CRC: 0, Aux: 0},
		{Off: 140, Len: 1 << 20, CRC: 42, Aux: 7},
	}
	var buf []byte
	for _, e := range dir {
		buf = AppendEntry(buf, e)
	}
	got, err := ParseDirectory(buf, len(dir))
	if err != nil {
		t.Fatal(err)
	}
	for i := range dir {
		if got[i] != dir[i] {
			t.Fatalf("entry %d: got %+v, want %+v", i, got[i], dir[i])
		}
	}
	if _, err := ParseDirectory(buf[:len(buf)-1], len(dir)); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("short directory: err = %v, want ErrCorrupt", err)
	}
}

func TestValidateLayout(t *testing.T) {
	dir := []BlockInfo{{Off: 24, Len: 10}, {Off: 34, Len: 6}}
	if err := ValidateLayout(dir, 24, 4, 44); err != nil {
		t.Fatalf("valid layout rejected: %v", err)
	}
	if err := ValidateLayout(dir, 24, 4, -1); err != nil {
		t.Fatalf("unknown file size rejected: %v", err)
	}
	if err := ValidateLayout(dir, 24, 4, 40); !errors.Is(err, ErrTruncated) {
		t.Fatalf("short file: err = %v, want ErrTruncated", err)
	}
	if err := ValidateLayout(dir, 24, 4, 50); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("trailing bytes: err = %v, want ErrCorrupt", err)
	}
	gap := []BlockInfo{{Off: 24, Len: 10}, {Off: 36, Len: 6}}
	if err := ValidateLayout(gap, 24, 4, 46); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("gap between blocks: err = %v, want ErrCorrupt", err)
	}
}

// toyKind holds one byte per node in node-range blocks, with a two-byte meta.
var toyKind = &Kind{
	Name:       "toy",
	Magic:      [8]byte{'S', 'O', 'I', 'T', 'O', 'Y', '0', '2'},
	Meta:       2,
	NodeRange:  true,
	Rebuild:    "toy rebuild",
	CheckEntry: func(h *Header, i int) error { return nil },
	Decode:     func(h *Header, i int, block []byte) error { return nil },
}

func writeToy(t *testing.T, nodes int) (string, []byte) {
	t.Helper()
	enc := func(buf []byte, i int) ([]byte, uint32) {
		lo, hi := Range(i, nodes)
		for v := lo; v < hi; v++ {
			buf = append(buf, byte(v))
		}
		return buf, uint32(hi - lo)
	}
	var b bytes.Buffer
	dir, n, err := toyKind.Write(&b, uint32(nodes), []byte{7, 8}, RangeBlocks(nodes), enc)
	if err != nil || n != int64(b.Len()) || len(dir) != RangeBlocks(nodes) {
		t.Fatalf("Write: %d bytes reported, %d written, err %v", n, b.Len(), err)
	}
	return writeTemp(t, b.Bytes()), b.Bytes()
}

// TestContainerRoundTrip: Read hands every block back in order, and Fsck
// picks the kind by its magic's family prefix among several. A bad block
// rejects a strict read; with a quarantine callback it is reported and the
// read goes on past it and the footer it breaks.
func TestContainerRoundTrip(t *testing.T) {
	nodes := 2*RangeNodes + 3
	p, data := writeToy(t, nodes)
	var got []byte
	keep := func(h *Header, i int, block []byte) error {
		got = append(got, block...)
		return nil
	}
	h, err := toyKind.Read(bytes.NewReader(data), nil, keep, nil)
	if err != nil || len(got) != nodes || len(h.Dir) != 3 || !bytes.Equal(h.Meta, []byte{7, 8}) {
		t.Fatalf("Read: %d bytes, header %+v, err %v", len(got), h, err)
	}
	bad := append([]byte(nil), data...)
	bad[h.Dir[1].Off] ^= 1
	if _, err := toyKind.Read(bytes.NewReader(bad), nil, keep, nil); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("strict read of a bad block: err = %v, want ErrCorrupt", err)
	}
	got = nil
	var quarantined []int
	_, err = toyKind.Read(bytes.NewReader(bad), nil, keep, func(i int, err error) {
		if errors.Is(err, ErrCorrupt) {
			quarantined = append(quarantined, i)
		}
	})
	if err != nil || len(quarantined) != 1 || quarantined[0] != 1 || len(got) != nodes-RangeNodes {
		t.Fatalf("quarantining read: quarantined %v, %d bytes kept, err %v", quarantined, len(got), err)
	}
	other := &Kind{Name: "other", Magic: [8]byte{'O', 'T', 'H', 'E', 'R', '!', '0', '1'}}
	rep, err := Fsck(p, other, toyKind)
	if err != nil || rep.Kind != toyKind || !rep.Clean() || rep.Label(2) != fmt.Sprintf("nodes %d-%d", 2*RangeNodes, nodes-1) {
		t.Fatalf("Fsck: %+v, err %v", rep, err)
	}
	if err := os.WriteFile(p, []byte("NOTAFILE-at-all"), 0o644); err != nil {
		t.Fatal(err)
	}
	if rep, err := Fsck(p, other, toyKind); err != nil || !errors.Is(rep.Fatal, ErrMagic) {
		t.Fatalf("unrecognized magic: %+v, err %v", rep, err)
	}
}

// TestRepairTrailingBytes: bytes after the footer are reported, not fatal,
// and repair rewrites the file byte for byte as it was written.
func TestRepairTrailingBytes(t *testing.T) {
	p, data := writeToy(t, 10)
	if err := os.WriteFile(p, append(data[:len(data):len(data)], 1, 2), 0o644); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(t.TempDir(), "fixed")
	rep, n, err := Repair(p, out, toyKind)
	if err != nil || n != 1 || rep.Trailing != 2 || rep.Clean() {
		t.Fatalf("Repair: %+v, %d blocks, err %v", rep, n, err)
	}
	if fixed, err := os.ReadFile(out); err != nil || !bytes.Equal(fixed, data) {
		t.Fatalf("repaired file differs from the original (err %v)", err)
	}
}

// TestCombine: the checksum of a concatenation combines from its parts'
// checksums and the second part's length, for every split of inputs up to
// a few KiB, empty parts included, as Read and Fsck derive the footer.
func TestCombine(t *testing.T) {
	data := make([]byte, 5000)
	for i := range data {
		data[i] = byte(i*131 + i>>7)
	}
	for _, n := range []int{0, 1, 2, 7, 64, 1000, 5000} {
		for _, cut := range []int{0, 1, n / 3, n / 2, n - 1, n} {
			if cut < 0 || cut > n {
				continue
			}
			a, b := data[:cut], data[cut:n]
			if got, want := combine(Checksum(a), Checksum(b), int64(len(b))), Checksum(data[:n]); got != want {
				t.Fatalf("combine over %d+%d bytes = %08x, want %08x", len(a), len(b), got, want)
			}
		}
	}
}
