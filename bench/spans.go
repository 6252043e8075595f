package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one recorded interval. The spans of one operation share Op;
// Parent is the ID of the span that caused this one, -1 for a root.
type span struct {
	ID, Parent, Op int
	// Lane is the caller that ran the operation (the trace viewer's
	// thread), so concurrent callers do not overlap on one track.
	Lane       int
	Name       string
	Start, End time.Time
	Attrs      map[string]string
}

func (s *span) dur() time.Duration { return s.End.Sub(s.Start) }

// recorder keeps spans in memory; the trace file is written once, at
// exit. It is safe for concurrent callers.
type recorder struct {
	mu    sync.Mutex
	spans []*span
}

// start opens a span under parent (nil for a root) at time.Now.
func (r *recorder) start(name string, parent *span, op, lane int) *span {
	return r.add(name, parent, op, lane, time.Now(), 0)
}

// add records a span with a known start and duration (a zero duration
// leaves it open for end).
func (r *recorder) add(name string, parent *span, op, lane int, start time.Time, d time.Duration) *span {
	s := &span{Parent: -1, Op: op, Lane: lane, Name: name, Start: start, End: start.Add(d)}
	r.mu.Lock()
	s.ID = len(r.spans)
	if parent != nil {
		s.Parent = parent.ID
	}
	r.spans = append(r.spans, s)
	r.mu.Unlock()
	return s
}

func (s *span) end() { s.End = time.Now() }

// graft copies a span tree the library returned (fmm's evaluate tree, the
// service's ?trace=1 echo) under parent, keeping its names and times.
func (r *recorder) graft(parent *span, o *obs.Span) *span {
	if o == nil {
		return nil
	}
	s := r.add(o.Name, parent, parent.Op, parent.Lane, o.Start, o.Duration)
	s.Attrs = o.Attrs
	for _, c := range o.Children {
		r.graft(s, c)
	}
	return s
}

// selfTime is the self-time rule: the span's duration minus the part of
// its interval that its child spans cover (overlapping children count
// once).
func (r *recorder) selfTime(s *span) time.Duration {
	kids := r.byParent(s.ID)
	sort.Slice(kids, func(i, j int) bool { return kids[i].Start.Before(kids[j].Start) })
	covered := time.Duration(0)
	edge := s.Start
	for _, c := range kids {
		from, to := c.Start, c.End
		if from.Before(edge) {
			from = edge
		}
		if to.After(s.End) {
			to = s.End
		}
		if to.After(from) {
			covered += to.Sub(from)
			edge = to
		}
	}
	return s.dur() - covered
}

// byParent returns the spans whose parent has the given id (-1: roots).
func (r *recorder) byParent(id int) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s.Parent == id {
			out = append(out, s)
		}
	}
	return out
}

// byName returns the recorded spans with the given name.
func (r *recorder) byName(name string) []*span {
	r.mu.Lock()
	defer r.mu.Unlock()
	var out []*span
	for _, s := range r.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// durations returns the durations in seconds of the spans named name.
func (r *recorder) durations(name string) []float64 {
	var out []float64
	for _, s := range r.byName(name) {
		out = append(out, s.dur().Seconds())
	}
	return out
}

// writeChrome writes the spans as Chrome trace-event JSON (complete "X"
// events; load the file in chrome://tracing or ui.perfetto.dev).
func (r *recorder) writeChrome(path string) error {
	type event struct {
		Name string            `json:"name"`
		Ph   string            `json:"ph"`
		Ts   float64           `json:"ts"`
		Dur  float64           `json:"dur"`
		Pid  int               `json:"pid"`
		Tid  int               `json:"tid"`
		Args map[string]string `json:"args,omitempty"`
	}
	r.mu.Lock()
	events := make([]event, 0, len(r.spans))
	var t0 time.Time
	for _, s := range r.spans {
		if t0.IsZero() || s.Start.Before(t0) {
			t0 = s.Start
		}
	}
	for _, s := range r.spans {
		args := map[string]string{"id": strconv.Itoa(s.ID), "parent": strconv.Itoa(s.Parent), "op": strconv.Itoa(s.Op)}
		for k, v := range s.Attrs {
			args[k] = v
		}
		events = append(events, event{
			Name: s.Name, Ph: "X",
			Ts:  float64(s.Start.Sub(t0).Nanoseconds()) / 1e3,
			Dur: float64(s.dur().Nanoseconds()) / 1e3,
			Pid: 1, Tid: s.Lane, Args: args,
		})
	}
	r.mu.Unlock()
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	err = json.NewEncoder(f).Encode(map[string]any{"traceEvents": events, "displayTimeUnit": "ms"})
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
