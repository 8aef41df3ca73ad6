package trace

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Schema identifies the JSON shape served by /debug/traces/{id}.
const Schema = "soi.trace/v1"

// TraceJSON is the wire form of one retained trace (schema soi.trace/v1).
type TraceJSON struct {
	Schema     string     `json:"schema"`
	TraceID    string     `json:"trace_id"`
	Service    string     `json:"service"`
	Retained   string     `json:"retained"` // error | partial | slow | sampled | running
	StartTime  time.Time  `json:"start_time"`
	DurationMS float64    `json:"duration_ms"`
	Spans      []SpanJSON `json:"spans"`
}

// SpanJSON is one span in the tree. Children are nested; spans whose parent
// id is unknown locally (the parent lives in another process) are roots here
// and flagged remote_parent.
type SpanJSON struct {
	SpanID       string         `json:"span_id"`
	ParentSpanID string         `json:"parent_span_id,omitempty"`
	RemoteParent bool           `json:"remote_parent,omitempty"`
	Name         string         `json:"name"`
	StartTime    time.Time      `json:"start_time"`
	DurationMS   float64        `json:"duration_ms"`
	Running      bool           `json:"running,omitempty"`
	HTTPStatus   int            `json:"http_status,omitempty"`
	Error        string         `json:"error,omitempty"`
	Attrs        map[string]any `json:"attrs,omitempty"`
	Events       []EventJSON    `json:"events,omitempty"`
	Children     []SpanJSON     `json:"children,omitempty"`
}

// EventJSON is one span event; at_ms is relative to the span start.
type EventJSON struct {
	Name  string         `json:"name"`
	AtMS  float64        `json:"at_ms"`
	Attrs map[string]any `json:"attrs,omitempty"`
}

// summaryJSON is one row of the /debug/traces list view.
type summaryJSON struct {
	TraceID    string    `json:"trace_id"`
	Retained   string    `json:"retained"`
	Root       string    `json:"root"`
	StartTime  time.Time `json:"start_time"`
	DurationMS float64   `json:"duration_ms"`
	Spans      int       `json:"spans"`
	HTTPStatus int       `json:"http_status,omitempty"`
	Error      string    `json:"error,omitempty"`
}

func attrMap(attrs []Attr) map[string]any {
	if len(attrs) == 0 {
		return nil
	}
	m := make(map[string]any, len(attrs))
	for _, a := range attrs {
		m[a.Key] = a.Value
	}
	return m
}

// snapshotSpan freezes one span's mutable state.
func snapshotSpan(s *Span) SpanJSON {
	s.mu.Lock()
	attrs := attrMap(s.attrs)
	events := make([]EventJSON, 0, len(s.events))
	for _, ev := range s.events {
		events = append(events, EventJSON{
			Name:  ev.Name,
			AtMS:  float64(ev.At.Sub(s.start)) / float64(time.Millisecond),
			Attrs: attrMap(ev.Attrs),
		})
	}
	s.mu.Unlock()
	j := SpanJSON{
		SpanID:    s.id.String(),
		Name:      s.name,
		StartTime: s.start,
		Attrs:     attrs,
	}
	if len(events) > 0 {
		j.Events = events
	}
	if s.parent != 0 {
		j.ParentSpanID = s.parent.String()
	}
	if s.ended.Load() {
		j.DurationMS = float64(s.durNS.Load()) / float64(time.Millisecond)
	} else {
		j.Running = true
		j.DurationMS = float64(time.Since(s.start)) / float64(time.Millisecond)
	}
	if st := int(s.httpStatus.Load()); st != 0 {
		j.HTTPStatus = st
	}
	if msg := s.errMsg.Load(); msg != nil {
		j.Error = *msg
	}
	return j
}

// Snapshot renders the trace as its soi.trace/v1 JSON form, assembling the
// span tree from parent links. Spans whose parent is not local become roots
// flagged remote_parent (their parent span lives across the wire).
func (tr *Trace) Snapshot(service string) TraceJSON {
	spans, reason := tr.state()

	// Freeze every span, then assemble the tree from parent links. A span
	// whose parent id is not local (it lives in another process) becomes a
	// root here, flagged remote_parent.
	flat := make([]*SpanJSON, 0, len(spans))
	byID := make(map[string]*SpanJSON, len(spans))
	for _, s := range spans {
		j := snapshotSpan(s)
		flat = append(flat, &j)
		byID[j.SpanID] = &j
	}
	childOf := make(map[string][]*SpanJSON)
	for _, j := range flat {
		if j.ParentSpanID == "" {
			continue
		}
		if _, ok := byID[j.ParentSpanID]; ok {
			childOf[j.ParentSpanID] = append(childOf[j.ParentSpanID], j)
		} else {
			j.RemoteParent = true
		}
	}
	var build func(j *SpanJSON) SpanJSON
	build = func(j *SpanJSON) SpanJSON {
		out := *j
		kids := childOf[j.SpanID]
		sort.SliceStable(kids, func(a, b int) bool { return kids[a].StartTime.Before(kids[b].StartTime) })
		for _, k := range kids {
			out.Children = append(out.Children, build(k))
		}
		return out
	}
	var roots []SpanJSON
	for _, j := range flat {
		if j.ParentSpanID == "" || j.RemoteParent {
			roots = append(roots, build(j))
		}
	}

	out := TraceJSON{
		Schema:    Schema,
		TraceID:   tr.id.String(),
		Service:   service,
		Retained:  reason,
		StartTime: tr.start,
		Spans:     roots,
	}
	if len(spans) > 0 {
		out.DurationMS = rootDurationMS(spans[0])
	}
	return out
}

// state copies the trace's spans and its retention reason, which is
// "running" while the local root is still open.
func (tr *Trace) state() ([]*Span, string) {
	tr.mu.Lock()
	defer tr.mu.Unlock()
	spans := make([]*Span, len(tr.spans))
	copy(spans, tr.spans)
	reason := tr.retainReason
	if reason == "" && len(spans) > 0 && !spans[0].ended.Load() {
		reason = "running"
	}
	return spans, reason
}

// rootDurationMS is the root's duration, or its elapsed time while it runs.
func rootDurationMS(root *Span) float64 {
	if root.ended.Load() {
		return float64(root.durNS.Load()) / float64(time.Millisecond)
	}
	return float64(time.Since(root.start)) / float64(time.Millisecond)
}

func (tr *Trace) summary() summaryJSON {
	spans, reason := tr.state()
	sum := summaryJSON{
		TraceID:   tr.id.String(),
		Retained:  reason,
		StartTime: tr.start,
		Spans:     len(spans),
	}
	if len(spans) > 0 {
		root := spans[0]
		sum.Root = root.name
		sum.DurationMS = rootDurationMS(root)
		sum.HTTPStatus = int(root.httpStatus.Load())
		if msg := root.errMsg.Load(); msg != nil {
			sum.Error = *msg
		}
	}
	return sum
}

// Get returns the retained trace with the given id, or nil (nil-safe).
func (t *Tracer) Get(id TraceID) *Trace {
	if t == nil {
		return nil
	}
	return t.ring.get(id)
}

// Handler serves the traces still running and the retained-trace ring:
//
//	GET {prefix}        → newest-first list of trace summaries, running first
//	GET {prefix}/{id}   → full soi.trace/v1 span tree
//
// A running trace is marked retained "running", with its elapsed duration.
// On a nil tracer every request answers 404 "tracing disabled".
func (t *Tracer) Handler(prefix string) http.Handler {
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if t == nil {
			http.Error(w, "tracing disabled", http.StatusNotFound)
			return
		}
		rest := strings.Trim(strings.TrimPrefix(r.URL.Path, prefix), "/")
		w.Header().Set("Content-Type", "application/json")
		if rest == "" {
			traces := append(t.running(), t.ring.recent()...)
			out := struct {
				Schema  string        `json:"schema"`
				Service string        `json:"service"`
				Traces  []summaryJSON `json:"traces"`
			}{Schema: Schema, Service: t.opts.Service, Traces: make([]summaryJSON, 0, len(traces))}
			for _, tr := range traces {
				out.Traces = append(out.Traces, tr.summary())
			}
			enc := json.NewEncoder(w)
			enc.SetIndent("", "  ")
			_ = enc.Encode(out)
			return
		}
		id, ok := ParseTraceID(rest)
		if !ok {
			http.Error(w, "bad trace id", http.StatusBadRequest)
			return
		}
		tr := t.ring.get(id)
		if tr == nil {
			tr = t.activeTrace(id)
		}
		if tr == nil {
			http.Error(w, "trace not found", http.StatusNotFound)
			return
		}
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		_ = enc.Encode(tr.Snapshot(t.opts.Service))
	})
}
