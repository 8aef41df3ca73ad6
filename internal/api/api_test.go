package api

import (
	"errors"
	"math"
	"net/http"
	"net/http/httptest"
	"net/url"
	"testing"
	"time"
)

func TestThreshold(t *testing.T) {
	for _, tc := range []struct {
		raw  string
		want float64
		ok   bool
	}{
		{"", 0.5, true},
		{"1", 1, true},
		{"0.25", 0.25, true},
		{"0", 0, false},
		{"-1", 0, false},
		{"2", 0, false},
		{"NaN", 0, false},
		{"Inf", 0, false},
		{"-Inf", 0, false},
		{"abc", 0, false},
	} {
		got, err := Threshold(url.Values{"threshold": {tc.raw}})
		var ae *Error
		switch {
		case tc.ok && (err != nil || got != tc.want):
			t.Errorf("Threshold(%q) = %v, %v; want %v", tc.raw, got, err, tc.want)
		case !tc.ok && (!errors.As(err, &ae) || ae.Status != http.StatusBadRequest || ae.Code != CodeBadRequest):
			t.Errorf("Threshold(%q) error %v, want a 400 bad_request", tc.raw, err)
		}
	}
}

// TestWriteJSONUnencodable: a body that cannot be encoded is a 500 envelope
// written before any 2xx header goes out, never a truncated success.
func TestWriteJSONUnencodable(t *testing.T) {
	rec := httptest.NewRecorder()
	err := WriteJSON(rec, http.StatusOK, Spread{Spread: math.NaN()})
	if err == nil || rec.Code != http.StatusInternalServerError {
		t.Fatalf("status %d, err %v; want 500 and an error", rec.Code, err)
	}
	if e := ParseError(rec.Code, rec.Body.Bytes()); e == nil || e.Code != CodeInternal {
		t.Fatalf("body %q, want an internal envelope", rec.Body.String())
	}
}

func TestErrorEnvelopeRoundTrip(t *testing.T) {
	rec := httptest.NewRecorder()
	WriteError(rec, &Error{Status: http.StatusServiceUnavailable, Code: CodeDraining, Msg: "bye", RetryAfter: 1500 * time.Millisecond})
	if got := rec.Header().Get("Retry-After"); got != "2" {
		t.Errorf("Retry-After %q, want 2 (rounded up to whole seconds)", got)
	}
	e := ParseError(rec.Code, rec.Body.Bytes())
	if e == nil || e.Status != 503 || e.Code != CodeDraining || e.Msg != "bye" || e.RetryAfter != 1500*time.Millisecond {
		t.Fatalf("round trip = %+v", e)
	}
	if !RetryableCode(e.Code) || RetryableCode(CodeBadRequest) {
		t.Error("draining must be retryable and bad_request permanent")
	}
	if ParseError(200, []byte(`{"spread":1}`)) != nil {
		t.Error("a success body parsed as an error envelope")
	}
}

// TestAnnotationOf: the annotation is reachable through any body that
// embeds it, and the gateway's scatter fields stay absent until set.
func TestAnnotationOf(t *testing.T) {
	body := Reliability{Partial: Partial{Degraded: true, ErrorBound: 0.1}}
	if a := AnnotationOf(body); !a.Degraded || a.ErrorBound != 0.1 || a.Scatter != nil {
		t.Errorf("AnnotationOf = %+v", a)
	}
	if a := AnnotationOf(Info{}); a != (Partial{}) {
		t.Errorf("AnnotationOf(Info) = %+v, want zero", a)
	}
	if StatusOf(true) != http.StatusPartialContent || StatusOf(false) != http.StatusOK {
		t.Error("StatusOf mismaps")
	}
}
