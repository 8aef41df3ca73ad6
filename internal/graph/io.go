package graph

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"os"
	"slices"
	"strconv"
	"strings"
	"unicode/utf8"

	"soi/internal/atomicfile"
)

// The on-disk format is one edge per line:
//
//	<from> <tab-or-space> <to> <tab-or-space> <probability>
//
// A line with a single field declares a node without edges — shard files
// written by the partitioner use this so nodes whose every edge crosses the
// cut still exist in the shard. Lines starting with '#' and blank lines are
// ignored. Node identifiers may be arbitrary non-negative integers; they are
// remapped to a dense 0..N-1 space in first-appearance order, and the
// mapping is returned so callers can report results in the original
// identifier space.

// ReadTSV parses the edge-list format from r.
// It returns the graph and the dense-ID -> original-ID mapping.
func ReadTSV(r io.Reader) (*Graph, []int64, error) {
	var buf bytes.Buffer
	if _, err := buf.ReadFrom(r); err != nil {
		return nil, nil, fmt.Errorf("graph: read: %w", err)
	}
	return parseTSV(buf.Bytes())
}

// maxLine bounds a line's length, counting its '\r' but not its '\n': a
// line must fit, newline included, in the 16 MiB a bufio.Scanner buffer
// would allow.
const maxLine = 16*1024*1024 - 1

// asciiSpace marks the ASCII bytes strings.TrimSpace and strings.Fields
// treat as whitespace.
var asciiSpace = [utf8.RuneSelf]bool{'\t': true, '\n': true, '\v': true, '\f': true, '\r': true, ' ': true}

// parseTSV parses an edge list held in memory. Each line is split in place;
// the tokens reach strconv as string(tok) conversions, which do not
// allocate because strconv does not retain its argument.
func parseTSV(data []byte) (*Graph, []int64, error) {
	b := &Builder{edges: make([]Edge, 0, bytes.Count(data, []byte{'\n'})+1)}
	ids := interner{limit: int64(len(data))}
	lineNo := 0
	for len(data) > 0 {
		lineNo++
		line := data
		if i := bytes.IndexByte(data, '\n'); i >= 0 {
			line, data = data[:i], data[i+1:]
		} else {
			data = nil
		}
		if len(line) > maxLine {
			return nil, nil, fmt.Errorf("graph: read: %w", bufio.ErrTooLong)
		}
		var f [3][]byte
		switch nf := splitFields(line, &f); nf {
		case 0: // blank or comment
		case 1:
			id, err := strconv.ParseInt(string(f[0]), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad node id: %v", lineNo, err)
			}
			ids.intern(id)
		case 3:
			from, err := strconv.ParseInt(string(f[0]), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad source id: %v", lineNo, err)
			}
			to, err := strconv.ParseInt(string(f[1]), 10, 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad target id: %v", lineNo, err)
			}
			p, err := strconv.ParseFloat(string(f[2]), 64)
			if err != nil {
				return nil, nil, fmt.Errorf("graph: line %d: bad probability: %v", lineNo, err)
			}
			u := ids.intern(from) // before to: ids number in order of appearance
			b.edges = append(b.edges, Edge{From: u, To: ids.intern(to), Prob: p})
		default:
			return nil, nil, fmt.Errorf("graph: line %d: want 1 or 3 fields, got %d", lineNo, nf)
		}
	}
	b.n = len(ids.orig)
	g, err := b.Build()
	if err != nil {
		return nil, nil, err
	}
	return g, ids.orig, nil
}

// splitFields stores the first three whitespace-separated fields of line in
// f and returns the field count, 0 for a blank or comment line. It splits
// exactly as strings.Fields(strings.TrimSpace(line)) would: ASCII lines are
// split in place, and a line holding any byte >= 0x80 goes through those
// functions so Unicode whitespace is honored.
func splitFields(line []byte, f *[3][]byte) int {
	nf := 0
	for i := 0; i < len(line); {
		c := line[i]
		if c >= utf8.RuneSelf {
			return splitFieldsUnicode(line, f)
		}
		if asciiSpace[c] {
			i++
			continue
		}
		if nf == 0 && c == '#' {
			return 0
		}
		j := i + 1
		for ; j < len(line); j++ {
			if c := line[j]; c >= utf8.RuneSelf {
				return splitFieldsUnicode(line, f)
			} else if asciiSpace[c] {
				break
			}
		}
		if nf < len(f) {
			f[nf] = line[i:j]
		}
		nf++
		i = j
	}
	return nf
}

// splitFieldsUnicode is splitFields for a line holding non-ASCII bytes.
func splitFieldsUnicode(line []byte, f *[3][]byte) int {
	s := strings.TrimSpace(string(line))
	if s == "" || s[0] == '#' {
		return 0
	}
	fields := strings.Fields(s)
	for i := 0; i < len(fields) && i < len(f); i++ {
		f[i] = []byte(fields[i])
	}
	return len(fields)
}

// interner remaps original ids to dense ids in first-appearance order. Ids
// in [0, limit) go through a flat table that grows on demand; limit is the
// input's byte length, so the table stays within a few times the input
// size. Ids outside it, which a dense numbering never produces, go through
// a map.
type interner struct {
	orig   []int64
	table  []NodeID // table[raw] is raw's dense id + 1; 0 means unseen
	limit  int64
	sparse map[int64]NodeID
}

func (in *interner) intern(raw int64) NodeID {
	if raw >= 0 && raw < in.limit {
		if raw >= int64(len(in.table)) {
			n := min(max(2*len(in.table), int(raw)+1, 1024), int(in.limit))
			in.table = slices.Grow(in.table, n-len(in.table))[:n]
		}
		if d := in.table[raw]; d != 0 {
			return d - 1
		}
		d := NodeID(len(in.orig))
		in.table[raw] = d + 1
		in.orig = append(in.orig, raw)
		return d
	}
	if d, ok := in.sparse[raw]; ok {
		return d
	}
	if in.sparse == nil {
		in.sparse = make(map[int64]NodeID)
	}
	d := NodeID(len(in.orig))
	in.sparse[raw] = d
	in.orig = append(in.orig, raw)
	return d
}

// WriteTSV writes g in the edge-list format. If origIDs is non-nil it must
// have length NumNodes and is used to translate dense IDs back to original
// identifiers.
func WriteTSV(w io.Writer, g *Graph, origIDs []int64) error {
	bw := bufio.NewWriter(w)
	name := func(id NodeID) int64 {
		if origIDs != nil {
			return origIDs[id]
		}
		return int64(id)
	}
	if _, err := fmt.Fprintf(bw, "# nodes=%d edges=%d\n", g.NumNodes(), g.NumEdges()); err != nil {
		return err
	}
	touched := make([]bool, g.NumNodes())
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		nbrs, probs := g.Neighbors(u)
		for i, v := range nbrs {
			touched[u], touched[v] = true, true
			if _, err := fmt.Fprintf(bw, "%d\t%d\t%g\n", name(u), name(v), probs[i]); err != nil {
				return err
			}
		}
	}
	// Declare nodes no edge touches so a round-trip preserves them.
	for u := NodeID(0); int(u) < g.NumNodes(); u++ {
		if !touched[u] {
			if _, err := fmt.Fprintf(bw, "%d\n", name(u)); err != nil {
				return err
			}
		}
	}
	return bw.Flush()
}

// LoadFile reads a graph from the file at path.
func LoadFile(path string) (*Graph, []int64, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, nil, err
	}
	return parseTSV(data)
}

// SaveFile writes g to the file at path atomically (temp file + rename), so
// an interrupted save never leaves a truncated edge list behind.
func SaveFile(path string, g *Graph, origIDs []int64) error {
	return atomicfile.WriteFile(path, func(w io.Writer) error {
		return WriteTSV(w, g, origIDs)
	})
}
