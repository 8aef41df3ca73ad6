package statcheck

import (
	"strings"
	"testing"

	"soi/internal/bound"
)

// fakeT captures failures so the assertion helpers can be tested both ways.
type fakeT struct {
	testing.TB
	failed bool
	msg    string
}

func (f *fakeT) Helper() {}
func (f *fakeT) Errorf(format string, args ...any) {
	f.failed = true
	f.msg = format
}

func TestCloseWithinBoundPasses(t *testing.T) {
	f := &fakeT{TB: t}
	b := bound.Hoeffding(100, DefaultDelta)
	Close(f, "x", 0.5, 0.5+b.Eps/2, b)
	if f.failed {
		t.Fatal("in-bound estimate failed")
	}
	Close(f, "x", 0.5, 0.5+2*b.Eps, b)
	if !f.failed {
		t.Fatal("out-of-bound estimate passed")
	}
	if !strings.Contains(f.msg, "eps") {
		t.Fatalf("failure message %q must carry the bound math", f.msg)
	}
}

func TestOneSidedAssertions(t *testing.T) {
	b := bound.Hoeffding(100, DefaultDelta)
	f := &fakeT{TB: t}
	AtMost(f, "x", 1.0, 1.0-b.Eps/2, b) // within slack
	if f.failed {
		t.Fatal("AtMost failed within slack")
	}
	AtMost(f, "x", 1.0, 1.0-2*b.Eps, b)
	if !f.failed {
		t.Fatal("AtMost passed beyond slack")
	}
	f = &fakeT{TB: t}
	AtLeast(f, "x", 1.0, 1.0+b.Eps/2, b)
	if f.failed {
		t.Fatal("AtLeast failed within slack")
	}
	AtLeast(f, "x", 1.0, 1.0+2*b.Eps, b)
	if !f.failed {
		t.Fatal("AtLeast passed beyond slack")
	}
}

func TestInMargin(t *testing.T) {
	b := bound.Hoeffding(400, DefaultDelta)
	if !InMargin(0.5+b.Eps/2, 0.5, b) {
		t.Error("value inside eps of threshold must be in margin")
	}
	if InMargin(0.5+2*b.Eps, 0.5, b) {
		t.Error("value far from threshold must not be in margin")
	}
}

func TestNumeric(t *testing.T) {
	f := &fakeT{TB: t}
	Numeric(f, "sum", 1.0, 1.0+0x1p-53, 4)
	if f.failed {
		t.Fatal("half-ulp disagreement must pass at 4 ops")
	}
	Numeric(f, "sum", 1.0, 1.0+1e-9, 4)
	if !f.failed {
		t.Fatal("1e-9 disagreement must fail a 4-op tolerance")
	}
}
