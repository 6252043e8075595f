package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strconv"
	"time"

	"repro/internal/mpi"
)

// This file is the distributed view: one span tree (Span, on the rank's
// transport clock) and one message ledger (mpi.Event) per rank, merged
// into a Timeline with critical-path extraction, a load-imbalance report
// and Chrome trace-event export.

// RankTimeline is one rank's span tree and message ledger. The rank's
// goroutine builds it while the rank runs; the merged Timeline is read
// only after the run completes. Root opens at the transport clock's zero,
// so a span's offset on that clock — the scale the ledger's timestamps are
// on — is its Start minus Root.Start, in memory and after a JSON round
// trip alike.
type RankTimeline struct {
	Rank int         `json:"rank"`
	Root *Span       `json:"root"`
	Msgs []mpi.Event `json:"msgs"`
}

// NewRankTimeline opens a timeline whose "rank" root span, and every span
// later started under it, reads elapsed — the rank transport's clock
// (mpi.Transport.Elapsed): virtual time on the simulation, time since the
// job started on a real one, where the tree therefore sits at its true
// place on the wall clock.
func NewRankTimeline(rank int, elapsed func() time.Duration) *RankTimeline {
	origin := time.Now().Add(-elapsed())
	root := &Span{Name: "rank", Start: origin, clock: func() time.Time { return origin.Add(elapsed()) }}
	root.SetAttr("rank", strconv.Itoa(rank))
	return &RankTimeline{Rank: rank, Root: root}
}

// offset places t on the rank's transport clock.
func (rt *RankTimeline) offset(t time.Time) time.Duration { return t.Sub(rt.Root.Start) }

// Timeline is the merged view of a distributed run: every rank's span
// tree plus the global communication ledger.
type Timeline struct {
	Ranks []*RankTimeline `json:"ranks"`
}

// MergeTimeline combines per-rank timelines into one global timeline.
// Nil entries (ranks that did not record) are dropped.
func MergeTimeline(rts []*RankTimeline) *Timeline {
	t := &Timeline{}
	for _, rt := range rts {
		if rt != nil {
			t.Ranks = append(t.Ranks, rt)
		}
	}
	sort.Slice(t.Ranks, func(i, j int) bool { return t.Ranks[i].Rank < t.Ranks[j].Rank })
	return t
}

// TotalBytes sums the payload bytes of all point-to-point sends.
func (t *Timeline) TotalBytes() int64 {
	var b int64
	for _, rt := range t.Ranks {
		for _, m := range rt.Msgs {
			if m.Kind == mpi.EventSend {
				b += int64(m.Bytes)
			}
		}
	}
	return b
}

// TotalMessages counts all point-to-point sends.
func (t *Timeline) TotalMessages() int {
	n := 0
	for _, rt := range t.Ranks {
		for _, m := range rt.Msgs {
			if m.Kind == mpi.EventSend {
				n++
			}
		}
	}
	return n
}

// PathSegment is one link of the critical path: an interval on one
// rank's virtual clock, either local compute (named by the innermost
// enclosing span) or a blocking communication edge.
type PathSegment struct {
	Rank int    `json:"rank"`
	Kind string `json:"kind"` // "compute", "recv" or "collective"
	Name string `json:"name"`
	// Start/End are on Rank's clock for compute segments; for
	// communication edges Start is the dependency time on the upstream
	// rank and End the unblock time on Rank.
	Start time.Duration `json:"start_ns"`
	End   time.Duration `json:"end_ns"`
	Bytes int           `json:"bytes,omitempty"`
}

// Dur returns the segment's length.
func (s PathSegment) Dur() time.Duration { return s.End - s.Start }

// PathDuration sums the lengths of a critical path's segments. For a
// complete timeline it equals the latest root-span end over all ranks:
// the path's segments tile the interval from 0 to that end without gaps
// or overlaps.
func PathDuration(path []PathSegment) time.Duration {
	var d time.Duration
	for _, s := range path {
		d += s.Dur()
	}
	return d
}

// CriticalPath extracts the chain of compute spans and message edges
// that determines the run's virtual wall clock. It walks backwards from
// the slowest rank's finish: local time back to the last blocking
// operation, then across the dependency edge to the upstream rank, and
// so on to time zero. Segments are returned oldest first and are
// contiguous: each segment's End is the next segment's Start.
func (t *Timeline) CriticalPath() []PathSegment {
	if len(t.Ranks) == 0 {
		return nil
	}
	byRank := make(map[int]*RankTimeline, len(t.Ranks))
	// syncs[rank] are the blocking operations with a cross-rank (or
	// collective self-) dependency, ordered by End time.
	syncs := make(map[int][]mpi.Event, len(t.Ranks))
	cur := t.Ranks[0]
	for _, rt := range t.Ranks {
		byRank[rt.Rank] = rt
		if rt.Root.Duration > cur.Root.Duration {
			cur = rt
		}
		for _, m := range rt.Msgs {
			if m.DepRank >= 0 && m.End > m.DepTime {
				syncs[rt.Rank] = append(syncs[rt.Rank], m)
			}
		}
		sort.SliceStable(syncs[rt.Rank], func(i, j int) bool {
			return syncs[rt.Rank][i].End < syncs[rt.Rank][j].End
		})
	}

	var rev []PathSegment
	rank, now := cur.Rank, cur.Root.Duration
	// now strictly decreases every iteration (DepTime < End <= now), so
	// the walk terminates; the bound is a defense against a malformed
	// ledger.
	for iter := 0; now > 0 && iter < 1<<20; iter++ {
		var dep *mpi.Event
		for i := len(syncs[rank]) - 1; i >= 0; i-- {
			if s := syncs[rank][i]; s.End <= now {
				dep = &s
				break
			}
		}
		if dep == nil {
			rev = append(rev, computeSegments(byRank[rank], 0, now)...)
			break
		}
		if dep.End < now {
			rev = append(rev, computeSegments(byRank[rank], dep.End, now)...)
		}
		name := fmt.Sprintf("msg %d->%d", dep.Peer, dep.Rank)
		if dep.Kind == mpi.EventCollective {
			name = fmt.Sprintf("collective #%d", dep.Tag)
		}
		rev = append(rev, PathSegment{
			Rank: dep.Rank, Kind: dep.Kind.String(), Name: name,
			Start: dep.DepTime, End: dep.End, Bytes: dep.Bytes,
		})
		rank, now = dep.DepRank, dep.DepTime
	}
	// Reverse into oldest-first order.
	for i, j := 0, len(rev)-1; i < j; i, j = i+1, j-1 {
		rev[i], rev[j] = rev[j], rev[i]
	}
	return rev
}

// computeSegments covers (from, to] on one rank with compute path
// segments, newest first, split and named at the rank's span boundaries
// (innermost span wins; gaps are named "compute"). Names stop at the
// passes (rank > iteration > pass): the engine's per-level spans under a
// pass refine the Chrome trace, not the path.
func computeSegments(rt *RankTimeline, from, to time.Duration) []PathSegment {
	if rt == nil || to <= from {
		return nil
	}
	const passDepth = 2
	type interval struct {
		name       string
		start, end time.Duration
		depth      int
	}
	var flat []interval
	var walk func(s *Span, d int)
	walk = func(s *Span, d int) {
		if s == nil { // a decoded tree may hold a null child
			return
		}
		if s.Duration > 0 {
			at := rt.offset(s.Start)
			flat = append(flat, interval{s.Name, at, at + s.Duration, d})
		}
		if d < passDepth {
			for _, c := range s.Children {
				walk(c, d+1)
			}
		}
	}
	walk(rt.Root, 0)

	// Cut points: the interval bounds plus every span boundary inside.
	cuts := []time.Duration{from, to}
	for _, f := range flat {
		if f.start > from && f.start < to {
			cuts = append(cuts, f.start)
		}
		if f.end > from && f.end < to {
			cuts = append(cuts, f.end)
		}
	}
	sort.Slice(cuts, func(i, j int) bool { return cuts[i] < cuts[j] })

	nameAt := func(at time.Duration) string {
		name, depth := "compute", -1
		for _, f := range flat {
			if f.start <= at && at < f.end && f.depth > depth {
				name, depth = f.name, f.depth
			}
		}
		return name
	}

	var out []PathSegment // newest first, matching the backward walk
	for i := len(cuts) - 1; i > 0; i-- {
		a, b := cuts[i-1], cuts[i]
		if b <= a {
			continue
		}
		name := nameAt(a + (b-a)/2)
		if n := len(out); n > 0 && out[n-1].Name == name && out[n-1].Start == b {
			out[n-1].Start = a // merge adjacent same-name segments
			continue
		}
		out = append(out, PathSegment{Rank: rt.Rank, Kind: "compute", Name: name, Start: a, End: b})
	}
	return out
}

// RankLoad is one row of the load-imbalance report.
type RankLoad struct {
	Rank int `json:"rank"`
	// Elapsed is the rank's final virtual time; Wait the part spent
	// blocked in receives and collectives; Busy the rest.
	Elapsed time.Duration `json:"elapsed_ns"`
	Wait    time.Duration `json:"wait_ns"`
	Busy    time.Duration `json:"busy_ns"`
	// BytesSent/BytesRecv and MsgsSent/MsgsRecv count point-to-point
	// traffic; Collectives counts collective participations.
	BytesSent   int64 `json:"bytes_sent"`
	BytesRecv   int64 `json:"bytes_recv"`
	MsgsSent    int   `json:"msgs_sent"`
	MsgsRecv    int   `json:"msgs_recv"`
	Collectives int   `json:"collectives"`
}

// Loads summarizes every rank for the load-imbalance report, ordered
// by rank.
func (t *Timeline) Loads() []RankLoad {
	out := make([]RankLoad, 0, len(t.Ranks))
	for _, rt := range t.Ranks {
		l := RankLoad{Rank: rt.Rank, Elapsed: rt.Root.Duration}
		for _, m := range rt.Msgs {
			switch m.Kind {
			case mpi.EventSend:
				l.BytesSent += int64(m.Bytes)
				l.MsgsSent++
			case mpi.EventRecv:
				l.BytesRecv += int64(m.Bytes)
				l.MsgsRecv++
				l.Wait += m.Wait
			case mpi.EventCollective:
				l.Collectives++
				l.Wait += m.Wait
			}
		}
		l.Busy = l.Elapsed - l.Wait
		if l.Busy < 0 {
			l.Busy = 0
		}
		out = append(out, l)
	}
	return out
}

// ImbalanceRatio is the paper's load-imbalance indicator over busy
// (non-blocked) time: max busy / min busy, 1 for degenerate input.
func (t *Timeline) ImbalanceRatio() float64 {
	loads := t.Loads()
	if len(loads) == 0 {
		return 1
	}
	min, max := loads[0].Busy, loads[0].Busy
	for _, l := range loads[1:] {
		if l.Busy < min {
			min = l.Busy
		}
		if l.Busy > max {
			max = l.Busy
		}
	}
	if min <= 0 {
		return 1
	}
	return float64(max) / float64(min)
}

// chromeEvent is one entry of the Chrome trace-event JSON array
// (the "JSON Array Format" both chrome://tracing and Perfetto load).
type chromeEvent struct {
	Name string         `json:"name"`
	Ph   string         `json:"ph"`
	Ts   float64        `json:"ts"` // microseconds
	Dur  float64        `json:"dur,omitempty"`
	Pid  int            `json:"pid"`
	Tid  int            `json:"tid"`
	ID   string         `json:"id,omitempty"`
	Cat  string         `json:"cat,omitempty"`
	BP   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

// chromeTraceFile is the top-level trace shape.
type chromeTraceFile struct {
	TraceEvents     []chromeEvent `json:"traceEvents"`
	DisplayTimeUnit string        `json:"displayTimeUnit"`
}

func usec(d time.Duration) float64 { return float64(d.Nanoseconds()) / 1e3 }

// WriteChromeTrace exports the merged timeline as Chrome trace-event
// JSON, loadable in Perfetto or chrome://tracing: one thread per rank
// (pid 0) carrying the span tree, recv-wait slices, flow arrows for
// the messages that blocked a receiver, and the extracted critical
// path as its own process (pid 1).
func (t *Timeline) WriteChromeTrace(w io.Writer) error {
	var evs []chromeEvent
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 0, Tid: 0,
		Args: map[string]any{"name": "ranks"},
	})
	flowID := 0
	for _, rt := range t.Ranks {
		evs = append(evs, chromeEvent{
			Name: "thread_name", Ph: "M", Pid: 0, Tid: rt.Rank,
			Args: map[string]any{"name": fmt.Sprintf("rank %d", rt.Rank)},
		})
		var walk func(s *Span)
		walk = func(s *Span) {
			if s == nil {
				return
			}
			if s.Duration > 0 {
				args := make(map[string]any, len(s.Attrs))
				for k, v := range s.Attrs {
					args[k] = v
				}
				evs = append(evs, chromeEvent{
					Name: s.Name, Ph: "X", Ts: usec(rt.offset(s.Start)), Dur: usec(s.Duration),
					Pid: 0, Tid: rt.Rank, Args: args,
				})
			}
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(rt.Root)
		for _, m := range rt.Msgs {
			if m.Kind == mpi.EventRecv && m.Wait > 0 {
				evs = append(evs, chromeEvent{
					Name: fmt.Sprintf("wait recv %d", m.Peer), Ph: "X", Cat: "wait",
					Ts: usec(m.Start), Dur: usec(m.Wait), Pid: 0, Tid: m.Rank,
					Args: map[string]any{"bytes": m.Bytes, "tag": m.Tag},
				})
				flowID++
				id := fmt.Sprintf("m%d", flowID)
				evs = append(evs,
					chromeEvent{Name: "msg", Ph: "s", Cat: "msg", Ts: usec(m.Sent), Pid: 0, Tid: m.Peer, ID: id},
					chromeEvent{Name: "msg", Ph: "f", BP: "e", Cat: "msg", Ts: usec(m.End), Pid: 0, Tid: m.Rank, ID: id},
				)
			}
		}
	}
	evs = append(evs, chromeEvent{
		Name: "process_name", Ph: "M", Pid: 1, Tid: 0,
		Args: map[string]any{"name": "critical path"},
	})
	for _, seg := range t.CriticalPath() {
		evs = append(evs, chromeEvent{
			Name: seg.Name, Ph: "X", Cat: seg.Kind, Ts: usec(seg.Start), Dur: usec(seg.End - seg.Start),
			Pid: 1, Tid: 0,
			Args: map[string]any{"rank": seg.Rank, "kind": seg.Kind},
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(chromeTraceFile{TraceEvents: evs, DisplayTimeUnit: "ms"})
}
