package api

import (
	"encoding/json"
	"fmt"
	"net/http"
	"strconv"
	"time"
)

// Error codes carried by every non-2xx /v1 response. They are the machine
// contract: the gateway decides retryable-vs-permanent from the code, never
// by matching message strings.
const (
	CodeBadRequest       = "bad_request"       // malformed request; permanent
	CodeNotFound         = "not_found"         // unknown node/resource; permanent
	CodeConflict         = "conflict"          // endpoint needs an artifact the daemon did not load; permanent
	CodeOverloaded       = "overloaded"        // admission queue full; retry after backoff
	CodeBudget           = "budget_too_small"  // budget expired before any result; retry with a larger budget
	CodeDraining         = "draining"          // daemon is shutting down; fail over to a replica
	CodeLoading          = "loading"           // daemon is still loading artifacts; retry shortly
	CodeDegraded         = "degraded"          // index lost every world to quarantine; fail over to a replica
	CodeCanceled         = "canceled"          // client went away mid-request
	CodeInternal         = "internal"          // unexpected server-side failure
	CodeShardUnavailable = "shard_unavailable" // gateway: a single-shard query's shard has no usable replica
)

// RetryableCode reports whether a request that failed with code is worth
// retrying (possibly against another replica) without changing the request.
func RetryableCode(code string) bool {
	switch code {
	case CodeOverloaded, CodeDraining, CodeLoading, CodeDegraded:
		return true
	}
	return false
}

// Error is a request error with a definite status and machine-readable code.
// RetryAfter, when non-zero, becomes the response's Retry-After header and
// retry_after_ms hint; every retryable 503 carries one so the gateway's
// backoff honors it.
type Error struct {
	Status     int
	Code       string
	Msg        string
	RetryAfter time.Duration
}

func (e *Error) Error() string { return e.Msg }

// BadRequest is a 400 for a malformed request.
func BadRequest(format string, args ...any) *Error {
	return &Error{Status: http.StatusBadRequest, Code: CodeBadRequest, Msg: fmt.Sprintf(format, args...)}
}

// NotFound is a 404 for an unknown node or resource.
func NotFound(format string, args ...any) *Error {
	return &Error{Status: http.StatusNotFound, Code: CodeNotFound, Msg: fmt.Sprintf(format, args...)}
}

// Conflict is a 409 for an endpoint that needs an artifact the daemon did
// not load.
func Conflict(format string, args ...any) *Error {
	return &Error{Status: http.StatusConflict, Code: CodeConflict, Msg: fmt.Sprintf(format, args...)}
}

// ErrorInfo is the error object inside every non-2xx response body.
type ErrorInfo struct {
	// Code is one of the Code* constants.
	Code string `json:"code"`
	// Message is human-readable detail; clients must not parse it.
	Message string `json:"message"`
	// RetryAfterMS, when non-zero, is the server's backoff hint.
	RetryAfterMS int64 `json:"retry_after_ms,omitempty"`
}

// ErrorEnvelope is the JSON body of every non-2xx response:
// {"error":{"code":...,"message":...,"retry_after_ms":...}}.
type ErrorEnvelope struct {
	Error ErrorInfo `json:"error"`
}

// ParseError decodes a response body as an error envelope, returning nil
// when it is not one (a 2xx body, or an error from something other than a
// soi daemon).
func ParseError(status int, body []byte) *Error {
	var env ErrorEnvelope
	if json.Unmarshal(body, &env) != nil || env.Error.Code == "" {
		return nil
	}
	return &Error{
		Status:     status,
		Code:       env.Error.Code,
		Msg:        env.Error.Message,
		RetryAfter: time.Duration(env.Error.RetryAfterMS) * time.Millisecond,
	}
}

// WriteError writes e as the standard error envelope.
func WriteError(w http.ResponseWriter, e *Error) {
	if e.RetryAfter > 0 {
		w.Header().Set("Retry-After", strconv.Itoa(int((e.RetryAfter+time.Second-1)/time.Second)))
	}
	WriteJSON(w, e.Status, ErrorEnvelope{Error: ErrorInfo{
		Code:         e.Code,
		Message:      e.Msg,
		RetryAfterMS: e.RetryAfter.Milliseconds(),
	}})
}

// WriteJSON writes v as the JSON body with status. v is encoded before the
// header goes out, so a body that cannot be encoded becomes a 500 internal
// envelope instead of a truncated 2xx; the returned error is then the
// *Error that was written.
func WriteJSON(w http.ResponseWriter, status int, v any) error {
	body, err := json.Marshal(v)
	if err != nil {
		e := &Error{Status: http.StatusInternalServerError, Code: CodeInternal, Msg: err.Error()}
		WriteError(w, e)
		return e
	}
	WriteBody(w, status, append(body, '\n'))
	return nil
}

// WriteBody writes an already-encoded JSON body with status.
func WriteBody(w http.ResponseWriter, status int, body []byte) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	w.Write(body)
}
