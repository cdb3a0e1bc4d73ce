package obs

import (
	"fmt"
	"strings"
	"sync"
	"time"
)

// span.go implements wall-clock spans with parent/child structure.
// They answer the question the virtual-time sim.Tracer cannot: where
// did the *host's* time go — plan compilation, gathers, cache misses —
// as opposed to where the *modeled 2002 cluster's* time went. A span
// tree is built synchronously (StartChild under the currently open
// parent) and rendered as an indented timeline by Format.
//
// A nil *Span is the disabled state: StartChild returns nil, End and
// friends record nothing, so instrumented code needs no guards.

// Span is one timed region of host execution. When opened under a
// trace (StartTrace/StartRemoteSpan, or as a descendant of either),
// it additionally carries the 64-bit trace/span/parent IDs and node
// label that let it travel across processes as a SpanRecord; a plain
// StartSpan tree leaves them zero and behaves exactly as before.
type Span struct {
	name  string
	start time.Time

	traceID uint64
	spanID  uint64
	parent  uint64
	node    string

	mu       sync.Mutex
	end      time.Time
	ended    bool
	errFlag  bool
	children []*Span
	foreign  []SpanRecord
}

// StartSpan opens a root span (untraced: no IDs, not exportable).
func StartSpan(name string) *Span {
	return &Span{name: name, start: time.Now()}
}

// StartTrace opens a root span under a fresh trace ID, labelled with
// the node that runs it. Its descendants inherit the trace ID and
// node and get span IDs of their own.
func StartTrace(name, node string) *Span {
	return &Span{name: name, start: time.Now(),
		traceID: NewTraceID(), spanID: newID(), node: node}
}

// StartRemoteSpan opens a local root span adopted into a trace that
// started on another node: it keeps the caller-supplied trace ID and
// sets its parent to the remote span that issued the request, so the
// client can stitch it under that span by ID.
func StartRemoteSpan(name, node string, traceID, parent uint64) *Span {
	if traceID == 0 {
		return nil
	}
	return &Span{name: name, start: time.Now(),
		traceID: traceID, spanID: newID(), parent: parent, node: node}
}

// StartChild opens a child span under s; nil-safe (returns nil).
// Under a traced parent the child joins the trace.
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, start: time.Now()}
	if s.traceID != 0 {
		c.traceID, c.spanID, c.parent, c.node = s.traceID, newID(), s.spanID, s.node
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// TraceID returns the span's trace ID (0 when untraced or nil) — the
// standard "is tracing live here" gate.
func (s *Span) TraceID() uint64 {
	if s == nil {
		return 0
	}
	return s.traceID
}

// SpanID returns the span's own ID (0 when untraced or nil).
func (s *Span) SpanID() uint64 {
	if s == nil {
		return 0
	}
	return s.spanID
}

// Node returns the node label the span runs on ("" when untraced).
func (s *Span) Node() string {
	if s == nil {
		return ""
	}
	return s.node
}

// Fail marks the span as errored; the flag travels in its record.
func (s *Span) Fail() {
	if s == nil {
		return
	}
	s.mu.Lock()
	s.errFlag = true
	s.mu.Unlock()
}

// Failed reports whether Fail was called.
func (s *Span) Failed() bool {
	if s == nil {
		return false
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.errFlag
}

// Attach adds foreign records — completed spans shipped back from
// another node — under s; they surface in Records for stitching.
func (s *Span) Attach(recs []SpanRecord) {
	if s == nil || len(recs) == 0 {
		return
	}
	s.mu.Lock()
	s.foreign = append(s.foreign, recs...)
	s.mu.Unlock()
}

// Records flattens the traced subtree (local spans plus attached
// foreign records) into dst. Untraced spans contribute nothing. An
// open span is recorded up to now.
func (s *Span) Records(dst []SpanRecord) []SpanRecord {
	if s == nil || s.traceID == 0 {
		return dst
	}
	s.mu.Lock()
	end := s.end
	if !s.ended {
		end = time.Now()
	}
	rec := SpanRecord{
		TraceID: s.traceID, SpanID: s.spanID, Parent: s.parent,
		Name: s.name, Node: s.node,
		Start: s.start.UnixNano(), End: end.UnixNano(), Err: s.errFlag,
	}
	kids := append([]*Span(nil), s.children...)
	foreign := append([]SpanRecord(nil), s.foreign...)
	s.mu.Unlock()
	dst = append(dst, rec)
	dst = append(dst, foreign...)
	for _, c := range kids {
		dst = c.Records(dst)
	}
	return dst
}

// End closes the span (idempotent) and returns its duration.
func (s *Span) End() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	if !s.ended {
		s.end = time.Now()
		s.ended = true
	}
	d := s.end.Sub(s.start)
	s.mu.Unlock()
	return d
}

// EndObserve closes the span and records its duration, in
// nanoseconds, into the histogram. Both receivers may be nil.
func (s *Span) EndObserve(h *Histogram) time.Duration {
	d := s.End()
	if s != nil {
		h.Observe(d.Nanoseconds())
	}
	return d
}

// Name returns the span's name ("" for nil).
func (s *Span) Name() string {
	if s == nil {
		return ""
	}
	return s.name
}

// Duration returns the span's length — up to now if still open.
func (s *Span) Duration() time.Duration {
	if s == nil {
		return 0
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.ended {
		return s.end.Sub(s.start)
	}
	return time.Since(s.start)
}

// Children returns a snapshot of the direct children.
func (s *Span) Children() []*Span {
	if s == nil {
		return nil
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return append([]*Span(nil), s.children...)
}

// Format renders the span tree as an indented timeline, durations on
// the right. An open span shows "(open)".
func (s *Span) Format() string {
	if s == nil {
		return ""
	}
	var b strings.Builder
	s.format(&b, 0)
	return b.String()
}

func (s *Span) format(b *strings.Builder, depth int) {
	state := ""
	s.mu.Lock()
	if !s.ended {
		state = " (open)"
	}
	s.mu.Unlock()
	fmt.Fprintf(b, "%-*s%-*s %12s%s\n",
		2*depth, "", 40-2*depth, s.name, formatNs(s.Duration().Nanoseconds()), state)
	for _, c := range s.Children() {
		c.format(b, depth+1)
	}
}

// formatNs renders nanoseconds human-readably (ns/µs/ms/s).
func formatNs(ns int64) string {
	switch {
	case ns < 1000:
		return fmt.Sprintf("%dns", ns)
	case ns < 1_000_000:
		return fmt.Sprintf("%.1fµs", float64(ns)/1e3)
	case ns < 1_000_000_000:
		return fmt.Sprintf("%.1fms", float64(ns)/1e6)
	default:
		return fmt.Sprintf("%.2fs", float64(ns)/1e9)
	}
}
