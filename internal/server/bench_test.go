package server

import (
	"fmt"
	"net/http/httptest"
	"testing"

	"soi/internal/trace"
)

// BenchmarkServerSphereQuery measures the serving pipeline on /v1/sphere:
// "cold" clears the result cache before every request (full compute +
// marshal), "cached" replays the same query (cache lookup + write). The
// cached path is the daemon's raison d'être and must be an order of
// magnitude faster than cold.
func BenchmarkServerSphereQuery(b *testing.B) {
	s := newTestServer(b, nil)

	query := func() int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sphere/13?source=compute&samples=20", nil))
		return rec.Code
	}
	if code := query(); code != 200 {
		b.Fatalf("warmup status %d", code)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.env.Cache.Clear()
			if code := query(); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		query() // ensure the entry is present
		for i := 0; i < b.N; i++ {
			if code := query(); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
	})
}

// BenchmarkServerSphereQueryTraced is BenchmarkServerSphereQuery with
// tracing enabled at the default sample rate: the traced-vs-untraced delta
// is the serving cost of tracing (target: <2% on the cached path, where
// spans are the only extra work).
func BenchmarkServerSphereQueryTraced(b *testing.B) {
	s := newTestServer(b, func(c *Config) {
		c.Tracer = trace.New(trace.Options{Service: "soid"})
	})

	query := func() int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", "/v1/sphere/13?source=compute&samples=20", nil))
		return rec.Code
	}
	if code := query(); code != 200 {
		b.Fatalf("warmup status %d", code)
	}

	b.Run("cold", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			s.env.Cache.Clear()
			if code := query(); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		b.ReportAllocs()
		query() // ensure the entry is present
		for i := 0; i < b.N; i++ {
			if code := query(); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
	})
}

// BenchmarkServerSeedsQuery measures the heavier /v1/seeds greedy selection
// through the full pipeline, cold vs cached.
func BenchmarkServerSeedsQuery(b *testing.B) {
	s := newTestServer(b, nil)
	url := fmt.Sprintf("/v1/seeds?k=%d", 5)
	query := func() int {
		rec := httptest.NewRecorder()
		s.Handler().ServeHTTP(rec, httptest.NewRequest("GET", url, nil))
		return rec.Code
	}
	if code := query(); code != 200 {
		b.Fatalf("warmup status %d", code)
	}
	b.Run("cold", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			s.env.Cache.Clear()
			if code := query(); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
	})
	b.Run("cached", func(b *testing.B) {
		query()
		for i := 0; i < b.N; i++ {
			if code := query(); code != 200 {
				b.Fatalf("status %d", code)
			}
		}
	})
}
