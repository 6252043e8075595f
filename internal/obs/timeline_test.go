package obs

import (
	"bytes"
	"encoding/json"
	"reflect"
	"testing"
	"time"

	"repro/internal/mpi"
)

func msd(n int) time.Duration { return time.Duration(n) * time.Millisecond }

// testRank is a RankTimeline on a clock the test sets by hand.
type testRank struct {
	*RankTimeline
	now time.Duration
}

func newTestRank(rank int) *testRank {
	r := &testRank{}
	r.RankTimeline = NewRankTimeline(rank, func() time.Duration { return r.now })
	return r
}

// span records a closed child of the root over [from, to].
func (r *testRank) span(name string, from, to time.Duration) {
	r.now = from
	sp := r.Root.StartChild(name)
	r.now = to
	sp.End()
}

// close ends the root span at the given clock reading.
func (r *testRank) close(at time.Duration) *RankTimeline {
	r.now = at
	r.Root.End()
	return r.RankTimeline
}

// twoRankTimeline builds a hand-crafted scenario with a known critical
// path: rank 0 computes 30ms and sends; rank 1 computes 10ms, blocks
// 25ms on the receive, then computes until 80ms.
func twoRankTimeline() *Timeline {
	r0 := newTestRank(0)
	r0.Msgs = append(r0.Msgs, mpi.Event{
		Kind: mpi.EventSend, Rank: 0, Peer: 1, Tag: 7, Bytes: 800,
		Start: msd(29), End: msd(30), Sent: msd(30), DepRank: -1,
	})

	r1 := newTestRank(1)
	r1.Msgs = append(r1.Msgs, mpi.Event{
		Kind: mpi.EventRecv, Rank: 1, Peer: 0, Tag: 7, Bytes: 800,
		Start: msd(10), End: msd(36), Sent: msd(30),
		Wait: msd(25), DepRank: 0, DepTime: msd(30),
	})
	r1.span("work", msd(40), msd(70))

	return MergeTimeline([]*RankTimeline{r0.close(msd(60)), r1.close(msd(80)), nil})
}

func TestCriticalPathRecvHop(t *testing.T) {
	tl := twoRankTimeline()
	if got := tl.MaxEnd(); got != msd(80) {
		t.Fatalf("MaxEnd = %v, want 80ms", got)
	}
	path := tl.CriticalPath()
	if len(path) == 0 {
		t.Fatal("CriticalPath returned no segments")
	}
	// The segments tile [0, MaxEnd]: oldest-first, contiguous, and
	// summing exactly to the simulated wall clock.
	if path[0].Start != 0 {
		t.Errorf("path starts at %v, want 0", path[0].Start)
	}
	if last := path[len(path)-1]; last.End != msd(80) {
		t.Errorf("path ends at %v, want 80ms", last.End)
	}
	for i := 1; i < len(path); i++ {
		if path[i].Start != path[i-1].End {
			t.Errorf("segment %d starts at %v, previous ended at %v", i, path[i].Start, path[i-1].End)
		}
	}
	if got := PathDuration(path); got != msd(80) {
		t.Errorf("PathDuration = %v, want 80ms (= MaxEnd)", got)
	}
	// Expected chain: rank 0 compute [0,30], recv edge [30,36] on rank 1,
	// rank 1 compute to 80 with the "work" span named.
	if path[0].Rank != 0 || path[0].Kind != "compute" || path[0].End != msd(30) {
		t.Errorf("first segment = %+v, want rank 0 compute [0,30ms]", path[0])
	}
	var sawEdge, sawWork bool
	for _, seg := range path {
		if seg.Kind == "recv" {
			sawEdge = true
			if seg.Start != msd(30) || seg.End != msd(36) || seg.Rank != 1 || seg.Bytes != 800 {
				t.Errorf("recv edge = %+v, want rank 1 [30ms,36ms] 800B", seg)
			}
		}
		if seg.Kind == "compute" && seg.Name == "work" {
			sawWork = true
			if seg.Start != msd(40) || seg.End != msd(70) {
				t.Errorf("work segment = %+v, want [40ms,70ms]", seg)
			}
		}
	}
	if !sawEdge || !sawWork {
		t.Errorf("path missing recv edge (%v) or named work segment (%v): %+v", sawEdge, sawWork, path)
	}
}

func TestCriticalPathCollectiveHop(t *testing.T) {
	// Rank 1 is the straggler into a collective exiting at 70ms; rank 0
	// then computes alone until 90ms. The path must hop to rank 1.
	r0 := newTestRank(0)
	r0.Msgs = append(r0.Msgs, mpi.Event{
		Kind: mpi.EventCollective, Rank: 0, Peer: -1, Tag: 0, Bytes: 64,
		Start: msd(50), End: msd(70), Wait: msd(20), DepRank: 1, DepTime: msd(60),
	})
	r1 := newTestRank(1)
	r1.Msgs = append(r1.Msgs, mpi.Event{
		Kind: mpi.EventCollective, Rank: 1, Peer: -1, Tag: 0, Bytes: 64,
		Start: msd(60), End: msd(70), Wait: msd(10), DepRank: 1, DepTime: msd(60),
	})
	tl := MergeTimeline([]*RankTimeline{r0.close(msd(90)), r1.close(msd(70))})

	path := tl.CriticalPath()
	if got := PathDuration(path); got != msd(90) {
		t.Fatalf("PathDuration = %v, want 90ms; path %+v", got, path)
	}
	var coll *PathSegment
	for i := range path {
		if path[i].Kind == "collective" {
			coll = &path[i]
		}
	}
	if coll == nil {
		t.Fatalf("no collective edge in path %+v", path)
	}
	if coll.Start != msd(60) || coll.End != msd(70) {
		t.Errorf("collective edge [%v,%v], want [60ms,70ms]", coll.Start, coll.End)
	}
	if path[0].Rank != 1 {
		t.Errorf("path origin rank = %d, want 1 (the straggler)", path[0].Rank)
	}
}

func TestTimelineLoadsAndTotals(t *testing.T) {
	tl := twoRankTimeline()
	if got := tl.TotalBytes(); got != 800 {
		t.Errorf("TotalBytes = %d, want 800", got)
	}
	if got := tl.TotalMessages(); got != 1 {
		t.Errorf("TotalMessages = %d, want 1", got)
	}
	loads := tl.Loads()
	if len(loads) != 2 {
		t.Fatalf("Loads returned %d rows, want 2", len(loads))
	}
	if loads[0].Rank != 0 || loads[1].Rank != 1 {
		t.Fatalf("loads out of rank order: %+v", loads)
	}
	if loads[0].Wait != 0 || loads[0].BytesSent != 800 || loads[0].MsgsSent != 1 {
		t.Errorf("rank 0 load = %+v, want no wait, 800B/1msg sent", loads[0])
	}
	if loads[1].Wait != msd(25) || loads[1].Busy != msd(55) || loads[1].BytesRecv != 800 {
		t.Errorf("rank 1 load = %+v, want 25ms wait, 55ms busy, 800B recv", loads[1])
	}
	if r := tl.ImbalanceRatio(); r <= 1 || r > 1.2 {
		t.Errorf("ImbalanceRatio = %v, want 60/55", r)
	}
}

func TestWriteChromeTraceValidJSON(t *testing.T) {
	tl := twoRankTimeline()
	var buf bytes.Buffer
	if err := tl.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("trace output is not valid JSON: %v", err)
	}
	if trace.DisplayUnit != "ms" {
		t.Errorf("displayTimeUnit = %q, want \"ms\"", trace.DisplayUnit)
	}
	if len(trace.TraceEvents) == 0 {
		t.Fatal("traceEvents is empty")
	}
	phases := map[string]bool{}
	for i, ev := range trace.TraceEvents {
		ph, ok := ev["ph"].(string)
		if !ok || ph == "" {
			t.Fatalf("event %d has no ph: %v", i, ev)
		}
		phases[ph] = true
		if _, ok := ev["name"].(string); !ok {
			t.Fatalf("event %d has no name: %v", i, ev)
		}
		if _, ok := ev["pid"].(float64); !ok {
			t.Fatalf("event %d has no pid: %v", i, ev)
		}
	}
	// Metadata, complete slices and the message flow pair must all be
	// present for Perfetto to render ranks, spans and arrows.
	for _, ph := range []string{"M", "X", "s", "f"} {
		if !phases[ph] {
			t.Errorf("no %q events in trace", ph)
		}
	}
}

// TestRankTimelineJSONRoundTrip: the cluster's result frame carries a
// rank's timeline as JSON. The decoded copy must place every span at the
// same nanosecond of the rank's clock and keep the ledger, so the
// coordinator computes what the worker would have.
func TestRankTimelineJSONRoundTrip(t *testing.T) {
	r := newTestRank(3)
	r.span("tree_build", 1234567, 2345678)
	r.now = 3000001
	it := r.Root.StartChild("iteration")
	r.now = 3000017
	up := it.StartChild("up")
	up.SetAttr("bytes", "64")
	r.now = 4999999
	up.End()
	r.now = 5000003
	it.End()
	r.Msgs = append(r.Msgs, mpi.Event{
		Kind: mpi.EventCollective, Rank: 3, Peer: -1, Tag: 9, Bytes: 64,
		Start: 3000020, End: 3000950, Sent: 2999000, Wait: 900, DepRank: 3, DepTime: 2999000,
	})
	want := r.close(7000001)

	raw, err := json.Marshal(want)
	if err != nil {
		t.Fatal(err)
	}
	var got RankTimeline
	if err := json.Unmarshal(raw, &got); err != nil {
		t.Fatal(err)
	}
	if got.Rank != 3 || got.Root.Attrs["rank"] != "3" {
		t.Errorf("decoded rank %d, root attrs %v; want rank 3", got.Rank, got.Root.Attrs)
	}
	if !reflect.DeepEqual(got.Msgs, want.Msgs) {
		t.Errorf("ledger changed in the round trip:\n got %+v\nwant %+v", got.Msgs, want.Msgs)
	}
	type placed struct {
		name       string
		start, dur time.Duration
	}
	flatten := func(rt *RankTimeline) (out []placed) {
		var walk func(s *Span)
		walk = func(s *Span) {
			out = append(out, placed{s.Name, rt.offset(s.Start), s.Duration})
			for _, c := range s.Children {
				walk(c)
			}
		}
		walk(rt.Root)
		return out
	}
	w := flatten(want)
	if g := flatten(&got); !reflect.DeepEqual(g, w) {
		t.Errorf("span offsets changed in the round trip:\n got %v\nwant %v", g, w)
	}
	if w[0] != (placed{"rank", 0, 7000001}) || w[3] != (placed{"up", 3000017, 1999982}) {
		t.Errorf("spans not on the test clock: %v", w)
	}
	// A tree off the wire may hold a null child; the walks step over it.
	got.Root.Children = append(got.Root.Children, nil)
	one := MergeTimeline([]*RankTimeline{&got})
	if one.MaxEnd() != 7000001 || PathDuration(one.CriticalPath()) != 7000001 {
		t.Errorf("decoded timeline: MaxEnd %v, critical path %v; want 7.000001ms",
			one.MaxEnd(), PathDuration(one.CriticalPath()))
	}
	if err := one.WriteChromeTrace(&bytes.Buffer{}); err != nil {
		t.Error(err)
	}
}

// MaxEnd returns the latest root-span end over all ranks — the merged
// timeline's virtual wall clock (mpi.MaxElapsed up to the final
// bookkeeping tick).
func (t *Timeline) MaxEnd() time.Duration {
	var m time.Duration
	for _, rt := range t.Ranks {
		m = max(m, rt.Root.Duration)
	}
	return m
}
