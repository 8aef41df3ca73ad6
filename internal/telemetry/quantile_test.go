package telemetry

import (
	"strings"
	"sync"
	"testing"
)

func TestHistogramQuantiles(t *testing.T) {
	h := &Histogram{}
	// 100 observations of 1000: every quantile lands in the [512,1023]
	// bucket.
	for i := 0; i < 100; i++ {
		h.Observe(1000)
	}
	s := h.Snapshot()
	for _, q := range []float64{0.5, 0.9, 0.99} {
		v := s.Quantile(q)
		if v < 512 || v > 1023 {
			t.Errorf("Quantile(%v) = %v, want within [512,1023]", q, v)
		}
	}
	if s.P50 != s.Quantile(0.5) || s.P90 != s.Quantile(0.9) || s.P99 != s.Quantile(0.99) {
		t.Error("snapshot P50/P90/P99 disagree with Quantile()")
	}
}

func TestHistogramQuantileSpread(t *testing.T) {
	h := &Histogram{}
	// 90 fast observations (~100) and 10 slow ones (~100000): p50 must sit
	// in the fast bucket, p99 in the slow bucket.
	for i := 0; i < 90; i++ {
		h.Observe(100)
	}
	for i := 0; i < 10; i++ {
		h.Observe(100000)
	}
	s := h.Snapshot()
	if s.P50 < 64 || s.P50 > 127 {
		t.Errorf("P50 = %v, want in [64,127]", s.P50)
	}
	if s.P99 < 65536 || s.P99 > 131071 {
		t.Errorf("P99 = %v, want in [65536,131071]", s.P99)
	}
	// Quantiles are monotone in q.
	if !(s.P50 <= s.P90 && s.P90 <= s.P99) {
		t.Errorf("quantiles not monotone: p50=%v p90=%v p99=%v", s.P50, s.P90, s.P99)
	}
}

func TestHistogramQuantileEdgeCases(t *testing.T) {
	var nilH *Histogram
	if got := nilH.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("nil histogram quantile = %v", got)
	}
	h := &Histogram{}
	if got := h.Snapshot().Quantile(0.5); got != 0 {
		t.Errorf("empty histogram quantile = %v", got)
	}
	h.Observe(0) // lands in the v<=0 bucket
	s := h.Snapshot()
	if got := s.Quantile(0.5); got != 0 {
		t.Errorf("zero-bucket quantile = %v", got)
	}
	// Out-of-range q clamps.
	h2 := &Histogram{}
	h2.Observe(10)
	s2 := h2.Snapshot()
	if s2.Quantile(-1) != s2.Quantile(0) || s2.Quantile(2) != s2.Quantile(1) {
		t.Error("out-of-range q did not clamp")
	}
}

func TestObserveExemplar(t *testing.T) {
	h := &Histogram{}
	h.ObserveExemplar(100, "trace-a")
	h.ObserveExemplar(900, "trace-b")
	h.ObserveExemplar(50, "trace-c")
	s := h.Snapshot()
	if s.Count != 3 {
		t.Fatalf("count = %d, want 3", s.Count)
	}
	if s.ExemplarLast == nil || s.ExemplarLast.TraceID != "trace-c" {
		t.Errorf("last exemplar = %+v, want trace-c", s.ExemplarLast)
	}
	if s.ExemplarMax == nil || s.ExemplarMax.TraceID != "trace-b" || s.ExemplarMax.Value != 900 {
		t.Errorf("max exemplar = %+v, want trace-b/900", s.ExemplarMax)
	}
	// Empty trace id observes without attaching an exemplar.
	h2 := &Histogram{}
	h2.ObserveExemplar(5, "")
	s2 := h2.Snapshot()
	if s2.Count != 1 || s2.ExemplarLast != nil || s2.ExemplarMax != nil {
		t.Errorf("empty-id exemplar leaked: %+v", s2)
	}
	// Nil histogram discards.
	var nilH *Histogram
	nilH.ObserveExemplar(5, "x")
}

func TestObserveExemplarConcurrentMax(t *testing.T) {
	h := &Histogram{}
	var wg sync.WaitGroup
	for g := 0; g < 8; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := 0; i < 1000; i++ {
				h.ObserveExemplar(int64(g*1000+i), "t")
			}
		}(g)
	}
	wg.Wait()
	s := h.Snapshot()
	if s.ExemplarMax == nil || s.ExemplarMax.Value != 7999 {
		t.Fatalf("max exemplar = %+v, want value 7999", s.ExemplarMax)
	}
}

func TestReportTableShowsQuantiles(t *testing.T) {
	r := New()
	h := r.Histogram("x.latency")
	for i := 0; i < 10; i++ {
		h.Observe(1000)
	}
	var b strings.Builder
	r.Report().WriteTable(&b)
	out := b.String()
	if !strings.Contains(out, "p50=") || !strings.Contains(out, "p99=") {
		t.Fatalf("table missing quantiles:\n%s", out)
	}
}
