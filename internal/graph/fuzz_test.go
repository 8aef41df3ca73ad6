package graph

import (
	"bytes"
	"strings"
	"testing"
)

// FuzzReadTSV feeds arbitrary bytes to the edge-list parser: it must never
// panic, it must match the reference loader (same error text, or the same
// graph bits and original ids), and anything it accepts must be a valid
// graph that round-trips.
func FuzzReadTSV(f *testing.F) {
	f.Add("1 2 0.5\n2 3 0.25\n")
	f.Add("# comment\n\n10\t20\t1\n")
	f.Add("a b c\n")
	f.Add("1 1 0.5\n")
	f.Add("9999999999999999999 2 0.5\n")
	f.Add("1 2 NaN\n") // rejected: NaN is not in (0,1]
	f.Add("1 2 1e-300\n")
	f.Add("1 2 -0.5\n")              // negative probability
	f.Add("1 2 1.5\n")               // probability above 1
	f.Add("1 2 0\n")                 // zero probability (unrepresentable edge)
	f.Add("1 2 +Inf\n")              // infinite probability
	f.Add("1 2 1e309\n")             // overflows float64 to +Inf
	f.Add("1 2 0.5\n1 2 0.7\n")      // duplicate edge, conflicting probability
	f.Add("1 2 0.5\r\n2 3 0.25\r\n") // CRLF line endings
	f.Add("1 2 0.5 extra\n")         // trailing field
	f.Add("-1 2 0.5\n")              // negative node id
	f.Add("1\t2\t\n0.5\n")           // field split across lines
	f.Add("1\u00a02\u00850.5\n")     // Unicode whitespace
	f.Add("1 2 0.1\n1 2 0.3\n1 2 0.7\n")
	f.Fuzz(func(t *testing.T, input string) {
		checkReadTSV(t, input, false)
		g, orig, err := ReadTSV(strings.NewReader(input))
		if err != nil {
			return
		}
		if err := g.Validate(); err != nil {
			t.Fatalf("accepted invalid graph: %v", err)
		}
		if len(orig) != g.NumNodes() {
			t.Fatalf("mapping has %d entries for %d nodes", len(orig), g.NumNodes())
		}
		var buf bytes.Buffer
		if err := WriteTSV(&buf, g, orig); err != nil {
			t.Fatalf("write-back failed: %v", err)
		}
		g2, _, err := ReadTSV(&buf)
		if err != nil {
			t.Fatalf("round trip failed: %v", err)
		}
		if g2.NumNodes() != g.NumNodes() || g2.NumEdges() != g.NumEdges() {
			t.Fatalf("round trip changed shape: %d/%d -> %d/%d",
				g.NumNodes(), g.NumEdges(), g2.NumNodes(), g2.NumEdges())
		}
	})
}
