package obs

import (
	"fmt"
	"io"
	"sync"
	"sync/atomic"
	"time"
)

// Span is one stage of a run: a named node in a trace tree carrying
// task, item, and byte counts, and — when the trace was built with a
// clock — wall time. Spans are safe for concurrent counter updates;
// children must be created from a single goroutine per parent (the
// pipeline creates stage spans sequentially before fanning out), which
// is what keeps the rendered tree byte-identical across worker counts.
//
// All methods tolerate a nil receiver, so un-instrumented runs pass a
// nil span through the same code paths at no cost.
type Span struct {
	name  string
	now   func() time.Time // nil in deterministic traces
	start time.Time

	elapsed atomic.Int64 // nanoseconds; set by End or AddDuration
	tasks   atomic.Int64
	items   atomic.Int64
	bytes   atomic.Int64

	mu       sync.Mutex
	children []*Span
	notes    []note // diagnostic counts of timed traces, in first-add order
}

// note is one named diagnostic count of a span.
type note struct {
	key string
	n   int64
}

// NewTrace creates a root span with no clock: the tree records
// counts and bytes only, and renders byte-identically across runs and
// worker counts.
func NewTrace(name string) *Span {
	return &Span{name: name}
}

// NewTimedTrace creates a root span whose descendants measure wall
// time through now (inject time.Now from the cmd/ layer; study
// packages never read the clock themselves). Timed trees are
// diagnostic output: their rendering varies run to run.
func NewTimedTrace(name string, now func() time.Time) *Span {
	s := &Span{name: name, now: now}
	if now != nil {
		s.start = now()
	}
	return s
}

// Child creates and attaches a sub-span. Nil-safe: a nil parent
// yields a nil child, so call sites never branch.
func (s *Span) Child(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{name: name, now: s.now}
	if c.now != nil {
		c.start = c.now()
	}
	s.mu.Lock()
	s.children = append(s.children, c)
	s.mu.Unlock()
	return c
}

// End records the span's wall time, when its trace carries a clock.
// Without one, End is a no-op beyond marking completion.
func (s *Span) End() {
	if s == nil || s.now == nil {
		return
	}
	s.elapsed.Store(int64(s.now().Sub(s.start)))
}

// AddDuration attributes an externally measured duration to the span
// (the "durations flow in from the caller" side of the contract).
func (s *Span) AddDuration(d time.Duration) {
	if s == nil || d <= 0 {
		return
	}
	s.elapsed.Add(int64(d))
}

// AddTasks adds n to the span's task count (work units dispatched).
func (s *Span) AddTasks(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.tasks.Add(int64(n))
}

// AddItems adds n to the span's item count (results produced: pairs,
// FDs, groups, rows — whatever the stage emits).
func (s *Span) AddItems(n int) {
	if s == nil || n <= 0 {
		return
	}
	s.items.Add(int64(n))
}

// AddBytes adds n bytes processed to the span.
func (s *Span) AddBytes(n int64) {
	if s == nil || n <= 0 {
		return
	}
	s.bytes.Add(n)
}

// Note adds n to the span's diagnostic count named key, rendered as
// key=n after the standard attributes. Notes are kept only on timed
// traces, so a deterministic tree renders as it would without them:
// they carry work counts that no metric snapshot pins.
func (s *Span) Note(key string, n int) {
	if s == nil || s.now == nil || n <= 0 {
		return
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	for i := range s.notes {
		if s.notes[i].key == key {
			s.notes[i].n += int64(n)
			return
		}
	}
	s.notes = append(s.notes, note{key: key, n: int64(n)})
}

// Timed reports whether the span's trace carries a clock.
func (s *Span) Timed() bool { return s != nil && s.now != nil }

// WriteTree renders the span tree with box-drawing connectors, one
// line per span with its non-zero attributes:
//
//	study
//	├─ portal:SG [tasks=56 bytes=1203441]
//	│  └─ profile [tasks=56]
//	└─ portal:CA [tasks=131]
//
// Wall times appear only on timed traces.
func (s *Span) WriteTree(w io.Writer) {
	if s == nil {
		return
	}
	fmt.Fprintf(w, "%s%s\n", s.name, s.attrs())
	s.writeChildren(w, "")
}

func (s *Span) writeChildren(w io.Writer, prefix string) {
	s.mu.Lock()
	children := append([]*Span(nil), s.children...)
	s.mu.Unlock()
	for i, c := range children {
		connector, childPrefix := "├─ ", prefix+"│  "
		if i == len(children)-1 {
			connector, childPrefix = "└─ ", prefix+"   "
		}
		fmt.Fprintf(w, "%s%s%s%s\n", prefix, connector, c.name, c.attrs())
		c.writeChildren(w, childPrefix)
	}
}

// attrs renders the bracketed attribute list, omitting zero values so
// deterministic traces never print wall time.
func (s *Span) attrs() string {
	var parts []string
	if d := time.Duration(s.elapsed.Load()); d > 0 {
		parts = append(parts, "wall="+FormatDuration(d))
	}
	if n := s.tasks.Load(); n > 0 {
		parts = append(parts, fmt.Sprintf("tasks=%d", n))
	}
	if n := s.items.Load(); n > 0 {
		parts = append(parts, fmt.Sprintf("items=%d", n))
	}
	if n := s.bytes.Load(); n > 0 {
		parts = append(parts, fmt.Sprintf("bytes=%d", n))
	}
	s.mu.Lock()
	for _, nt := range s.notes {
		parts = append(parts, fmt.Sprintf("%s=%d", nt.key, nt.n))
	}
	s.mu.Unlock()
	if len(parts) == 0 {
		return ""
	}
	out := " ["
	for i, p := range parts {
		if i > 0 {
			out += " "
		}
		out += p
	}
	return out + "]"
}
