package obs

import (
	"sync"
	"time"
)

// Span is one node of a lightweight trace: a named interval with optional
// string attributes and child spans. It is the module's one span type: the
// evaluation service records one root span per evaluation (children per
// FMM pass, grandchildren per tree level) and serves recent roots from a
// SpanRing, and a distributed run records one tree per rank
// (RankTimeline). Which clock the interval is on is the root's choice and
// its descendants inherit it: StartSpan reads the wall clock, a rank's
// root reads its transport's.
//
// A span tree is built by a single goroutine (the FMM's passes are
// sequential; levels within a pass are sequential too) and becomes
// effectively immutable once the root has ended — which is what makes
// handing finished trees to concurrent readers safe without locks.
// Every method tolerates a nil receiver and returns/does nothing, so
// untraced code paths thread a nil span through at zero cost.
type Span struct {
	Name  string    `json:"name"`
	Start time.Time `json:"start"`
	// Duration is the span's length on its clock, 0 until End. It
	// marshals as integer nanoseconds.
	Duration time.Duration     `json:"duration_ns"`
	Attrs    map[string]string `json:"attrs,omitempty"`
	Children []*Span           `json:"children,omitempty"`

	// clock is what StartChild and End read; nil (StartSpan, and any tree
	// decoded from JSON) is time.Now.
	clock func() time.Time
}

// StartSpan opens a root span on the wall clock.
func StartSpan(name string) *Span {
	return &Span{Name: name, Start: time.Now()}
}

// now reads the span's clock.
func (s *Span) now() time.Time {
	if s.clock != nil {
		return s.clock()
	}
	return time.Now()
}

// StartChild opens a child span under s, on s's clock (nil-safe: returns
// nil).
func (s *Span) StartChild(name string) *Span {
	if s == nil {
		return nil
	}
	c := &Span{Name: name, Start: s.now(), clock: s.clock}
	s.Children = append(s.Children, c)
	return c
}

// End fixes the span's duration; the first call wins (later calls and
// nil receivers are no-ops).
func (s *Span) End() {
	if s == nil || s.Duration != 0 {
		return
	}
	s.Duration = s.now().Sub(s.Start)
}

// SetAttr attaches a string attribute (nil-safe).
func (s *Span) SetAttr(k, v string) {
	if s == nil {
		return
	}
	if s.Attrs == nil {
		s.Attrs = make(map[string]string)
	}
	s.Attrs[k] = v
}

// Find returns the first descendant (depth-first, s included) with the
// given name, or nil.
func (s *Span) Find(name string) *Span {
	if s == nil {
		return nil
	}
	if s.Name == name {
		return s
	}
	for _, c := range s.Children {
		if m := c.Find(name); m != nil {
			return m
		}
	}
	return nil
}

// SpanRing is a bounded ring of finished root spans: adding the
// (capacity+1)-th span overwrites the oldest, so memory stays O(capacity)
// regardless of traffic. Safe for concurrent use.
type SpanRing struct {
	mu   sync.Mutex
	buf  []*Span
	next int   // next write position
	n    int   // live entries (<= len(buf))
	seen int64 // total ever added
}

// NewSpanRing returns a ring holding up to capacity spans (min 1).
func NewSpanRing(capacity int) *SpanRing {
	if capacity < 1 {
		capacity = 1
	}
	return &SpanRing{buf: make([]*Span, capacity)}
}

// Add records a finished span, evicting the oldest when full.
func (r *SpanRing) Add(s *Span) {
	if s == nil {
		return
	}
	r.mu.Lock()
	r.buf[r.next] = s
	r.next = (r.next + 1) % len(r.buf)
	if r.n < len(r.buf) {
		r.n++
	}
	r.seen++
	r.mu.Unlock()
}

// Recent returns up to n spans, newest first (n <= 0 means all live
// entries).
func (r *SpanRing) Recent(n int) []*Span {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n <= 0 || n > r.n {
		n = r.n
	}
	out := make([]*Span, 0, n)
	for i := 1; i <= n; i++ {
		out = append(out, r.buf[(r.next-i+len(r.buf))%len(r.buf)])
	}
	return out
}

// Total returns how many spans were ever added (including evicted).
func (r *SpanRing) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.seen
}
