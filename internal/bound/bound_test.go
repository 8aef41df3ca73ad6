package bound

import (
	"math"
	"strings"
	"testing"
)

// testDelta is the conformance suite's δ (statcheck.DefaultDelta).
const testDelta = 1e-6

func TestHoeffdingFormula(t *testing.T) {
	b := Hoeffding(1000, 0.05)
	want := math.Sqrt(math.Log(2/0.05) / 2000)
	if math.Abs(b.Eps-want) > 1e-15 {
		t.Fatalf("eps = %v, want %v", b.Eps, want)
	}
	if b.Ell != 1000 || b.Delta != 0.05 || b.Candidates != 1 {
		t.Fatalf("bound metadata %+v wrong", b)
	}
	// More samples tighten the bound; smaller delta widens it.
	if !(Hoeffding(4000, testDelta).Eps < Hoeffding(1000, testDelta).Eps) {
		t.Error("eps must shrink with ell")
	}
	if !(Hoeffding(1000, 1e-9).Eps > Hoeffding(1000, 1e-3).Eps) {
		t.Error("eps must grow as delta shrinks")
	}
}

// TestServedValues pins the bounds the daemons serve at ServingDelta:
// budget truncation and quarantine report Hoeffding at the achieved or live
// world count, sketch answers report bottom-k at the sketch's k.
func TestServedValues(t *testing.T) {
	for _, tc := range []struct {
		name string
		b    Bound
		want float64
	}{
		{"hoeffding ell=1 (clamped)", Hoeffding(1, ServingDelta), 1},
		{"hoeffding ell=3", Hoeffding(3, ServingDelta), 0.7841002756996854},
		{"hoeffding ell=96", Hoeffding(96, ServingDelta), 0.13861065551937227},
		{"bottom-k k=8 (uncapped)", BottomK(8, ServingDelta), 1.7781722849473283},
		{"bottom-k k=64", BottomK(64, ServingDelta), 0.5927240949824428},
	} {
		if math.Abs(tc.b.Eps-tc.want) > 1e-15 {
			t.Errorf("%s: eps = %.17g, want %.17g (%s)", tc.name, tc.b.Eps, tc.want, tc.b.Derivation)
		}
	}
	if ServingDelta != 0.05 {
		t.Errorf("ServingDelta = %v; served bounds are documented at 95%%", ServingDelta)
	}
}

func TestUnionAndScale(t *testing.T) {
	b := Hoeffding(500, testDelta)
	u := b.Union(32)
	want := math.Sqrt(math.Log(2*32/testDelta) / 1000)
	if math.Abs(u.Eps-want) > 1e-15 {
		t.Fatalf("union eps = %v, want %v", u.Eps, want)
	}
	if u.Candidates != 32 {
		t.Fatalf("candidates = %d, want 32", u.Candidates)
	}
	s := b.Scale(7)
	if math.Abs(s.Eps-7*b.Eps) > 1e-15 {
		t.Fatalf("scaled eps = %v, want %v", s.Eps, 7*b.Eps)
	}
	if !strings.Contains(s.Derivation, "scaled") {
		t.Error("derivation must record the scaling step")
	}
}

// TestUnionUsesOwnFormula: a union over m estimates is the same derivation
// at δ/m, for bottom-k as for Hoeffding, and it commutes with Scale and
// distributes over Plus.
func TestUnionUsesOwnFormula(t *testing.T) {
	same := func(name string, got, want float64) {
		t.Helper()
		if math.Abs(got-want) > 1e-15*max(1, want) {
			t.Errorf("%s: eps = %.17g, want %.17g", name, got, want)
		}
	}
	for _, m := range []int{1, 4, 11, 1 << 8} {
		for _, delta := range []float64{0.05, testDelta} {
			d := delta / float64(m)
			same("bottom-k", BottomK(64, delta).Union(m).Eps, BottomK(64, d).Eps)
			same("hoeffding", Hoeffding(500, delta).Union(m).Eps, Hoeffding(500, d).Eps)
			same("scaled bottom-k", BottomK(64, delta).Scale(9).Union(m).Eps, BottomK(64, d).Scale(9).Eps)
			same("sum", BottomK(64, delta).Plus(Hoeffding(500, delta)).Union(m).Eps,
				BottomK(64, d).Eps+Hoeffding(500, d).Eps)
		}
	}
	// Unions nest: over 4 then 8 is over 32.
	same("nested", Hoeffding(500, testDelta).Union(4).Union(8).Eps, Hoeffding(500, testDelta).Union(32).Eps)
}

func TestERMIsTwiceUnion(t *testing.T) {
	e := ERM(2000, 64, testDelta)
	u := Hoeffding(2000, testDelta).Union(64)
	if math.Abs(e.Eps-2*u.Eps) > 1e-15 {
		t.Fatalf("ERM eps = %v, want 2*union = %v", e.Eps, 2*u.Eps)
	}
}

func TestPlusAddsEpsAndDelta(t *testing.T) {
	a, b := Hoeffding(100, 0.01), BottomK(64, 0.02)
	p := a.Plus(b)
	if p.Eps != a.Eps+b.Eps || p.Delta != a.Delta+b.Delta {
		t.Fatalf("plus = (eps %v, delta %v), want (%v, %v)", p.Eps, p.Delta, a.Eps+b.Eps, a.Delta+b.Delta)
	}
}

func TestRelativeErrorShrinksWithK(t *testing.T) {
	prev := BottomK(2, ServingDelta).Eps
	for k := 3; k <= 4096; k *= 2 {
		e := BottomK(k, ServingDelta).Eps
		if e >= prev {
			t.Fatalf("bottom-k eps not decreasing at k=%d: %v >= %v", k, e, prev)
		}
		prev = e
	}
	if e := BottomK(1<<20, ServingDelta).Eps; e > 0.01 {
		t.Fatalf("eps at k=2^20 = %v, want < 0.01", e)
	}
}

// TestMinBottomK: the smallest k inside the bottom-k derivation at 95% is
// 24 (ε(23) ≈ 1.003, ε(24) ≈ 0.981).
func TestMinBottomK(t *testing.T) {
	k := MinBottomK(ServingDelta)
	if k != 24 || BottomK(k, ServingDelta).Eps > 1 || BottomK(k-1, ServingDelta).Eps <= 1 {
		t.Fatalf("MinBottomK(%v) = %d", ServingDelta, k)
	}
}

func TestPanicsOnBadParameters(t *testing.T) {
	for name, fn := range map[string]func(){
		"ell=0":         func() { Hoeffding(0, testDelta) },
		"delta=0":       func() { Hoeffding(10, 0) },
		"delta=1":       func() { Hoeffding(10, 1) },
		"k=1":           func() { BottomK(1, testDelta) },
		"bottom delta":  func() { BottomK(8, 1.5) },
		"union(0)":      func() { Hoeffding(10, testDelta).Union(0) },
		"scale(0)":      func() { Hoeffding(10, testDelta).Scale(0) },
		"ERM union(0)":  func() { ERM(10, 0, testDelta) },
		"ERM delta=0":   func() { ERM(10, 4, 0) },
		"bottom-k k=-3": func() { BottomK(-3, ServingDelta) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", name)
				}
			}()
			fn()
		}()
	}
}
