package worlds

import (
	"testing"

	"soi/internal/graph"
	"soi/internal/rng"
	"soi/internal/telemetry"
)

// BenchmarkSampleCascadeMetered is the disabled-telemetry overhead proof on
// the real sampling hot loop: "off" (nil Metrics, what every un-metered
// caller pays) must be indistinguishable from the pre-telemetry baseline,
// and "on" pays only one histogram observe + two counter adds per cascade.
func BenchmarkSampleCascadeMetered(b *testing.B) {
	const n, edges = 2000, 10000
	gr := rng.New(1)
	bld := graph.NewBuilder(n)
	for i := 0; i < edges; i++ {
		u, v := graph.NodeID(gr.Intn(n)), graph.NodeID(gr.Intn(n))
		if u != v {
			bld.AddEdge(u, v, 0.02+0.2*gr.Float64())
		}
	}
	g, err := bld.Build()
	if err != nil {
		b.Fatal(err)
	}
	run := func(b *testing.B, m *Metrics) {
		r := rng.New(7)
		smp := NewSampler(g, IC)
		out := make([]graph.NodeID, 0, g.NumNodes())
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			src := graph.NodeID(i % g.NumNodes())
			out, _ = smp.Forward([]graph.NodeID{src}, r, out[:0], nil, m)
		}
	}
	b.Run("off", func(b *testing.B) { run(b, nil) })
	b.Run("on", func(b *testing.B) { run(b, NewMetrics(telemetry.New())) })
}
