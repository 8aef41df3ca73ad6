package infmax

import (
	"context"
	"testing"
	"testing/quick"

	"soi/internal/checkpoint"
	"soi/internal/index"
	"soi/internal/rng"
)

func TestCELFppMatchesNaiveObjective(t *testing.T) {
	g := randomGraph(t, 71, 80, 320, 0.15)
	x := buildIndex(t, g, 40, 72)
	cpp, err := StdCELFpp(x, 10)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := StdNaive(context.Background(), x, 10, nil)
	if err != nil {
		t.Fatal(err)
	}
	lg, ng := 0.0, 0.0
	for i := range cpp.Seeds {
		lg += cpp.Gains[i]
		ng += naive.Gains[i]
		if diff := lg - ng; diff > 1e-9 || diff < -1e-9 {
			t.Fatalf("objective diverges at prefix %d: %v vs %v", i+1, lg, ng)
		}
	}
}

func TestCELFppFewerEvaluationsThanNaive(t *testing.T) {
	g := randomGraph(t, 73, 120, 480, 0.12)
	x := buildIndex(t, g, 40, 74)
	cpp, err := StdCELFpp(x, 12)
	if err != nil {
		t.Fatal(err)
	}
	naive, err := StdNaive(context.Background(), x, 12, nil)
	if err != nil {
		t.Fatal(err)
	}
	if cpp.LazyEvaluations >= naive.LazyEvaluations {
		t.Fatalf("CELF++ evals %d >= naive %d", cpp.LazyEvaluations, naive.LazyEvaluations)
	}
}

func TestCELFppValidation(t *testing.T) {
	g := randomGraph(t, 75, 10, 30, 0.2)
	x := buildIndex(t, g, 5, 76)
	if _, err := StdCELFpp(x, 0); err == nil {
		t.Fatal("accepted k=0")
	}
}

func TestMarginalGain2Consistency(t *testing.T) {
	// gain(v | S) from MarginalGain2 must equal MarginalGain, and
	// gain(v | S ∪ {w}) must equal the gain measured after actually adding w.
	g := randomGraph(t, 77, 60, 240, 0.15)
	x := buildIndex(t, g, 20, 78)
	r := rng.New(79)
	for trial := 0; trial < 20; trial++ {
		cov := x.NewCoverage()
		s, s2 := x.NewScratch(), x.NewScratch()
		// Random pre-existing coverage.
		for j := 0; j < trial%4; j++ {
			cov.Add(int32(r.Intn(g.NumNodes())), s)
		}
		v := int32(r.Intn(g.NumNodes()))
		w := int32(r.Intn(g.NumNodes()))
		g1, g2 := cov.MarginalGain2(v, w, s, s2)
		if direct := cov.MarginalGain(v, s); direct != g1 {
			t.Fatalf("trial %d: gain1 %d, direct %d", trial, g1, direct)
		}
		cov.Add(w, s)
		if after := cov.MarginalGain(v, s); after != g2 {
			t.Fatalf("trial %d: gain2 %d, after-add %d", trial, g2, after)
		}
	}
}

func TestQuickCELFppEqualsCELF(t *testing.T) {
	f := func(seed uint64) bool {
		r := rng.New(seed)
		n := r.Intn(25) + 5
		g := randomGraph(t, seed^0xCAFE, n, 4*n, 0.1+0.3*r.Float64())
		x, err := index.Build(context.Background(), g, index.Options{Samples: 10, Seed: seed}, checkpoint.Config{})
		if err != nil {
			return false
		}
		k := r.Intn(n/2) + 1
		a, err1 := Std(context.Background(), x, k)
		b, err2 := StdCELFpp(x, k)
		if err1 != nil || err2 != nil {
			return false
		}
		la, lb := 0.0, 0.0
		for i := range a.Gains {
			la += a.Gains[i]
			lb += b.Gains[i]
			if diff := la - lb; diff > 1e-9 || diff < -1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStdCELFpp(b *testing.B) {
	g := randomGraph(b, 81, 1000, 5000, 0.1)
	x := buildIndex(b, g, 100, 82)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := StdCELFpp(x, 20); err != nil {
			b.Fatal(err)
		}
	}
}
