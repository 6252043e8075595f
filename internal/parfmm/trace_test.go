package parfmm

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"
	"time"

	"repro/internal/exec"
	"repro/internal/fmm"
	"repro/internal/geom"
	"repro/internal/kernels"
	"repro/internal/mpi"
	"repro/internal/obs"
)

// traceRun executes the deterministic 4-rank traced workload used by
// the trace tests.
func traceRun(t *testing.T, seed int64) *Result {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	patches := geom.SphereGrid(rng, 2000, 4, 0.22)
	den := geom.RandomDensities(rng, geom.TotalCount(patches), 1)
	res, err := Evaluate(patches, den, 4, Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 30},
		Machine: fastMachine(), Iterations: 1, Trace: true,
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	return res
}

func TestCriticalPathMatchesMaxElapsed(t *testing.T) {
	res := traceRun(t, 3)
	tl := res.Timeline
	if tl == nil {
		t.Fatal("Options.Trace set but Result.Timeline is nil")
	}
	if len(tl.Ranks) != 4 {
		t.Fatalf("timeline has %d ranks, want 4", len(tl.Ranks))
	}
	path := tl.CriticalPath()
	if len(path) == 0 {
		t.Fatal("empty critical path")
	}
	// The path tiles [0, MaxEnd]: contiguous segments summing to the
	// merged timeline's end...
	for i := 1; i < len(path); i++ {
		if path[i].Start != path[i-1].End {
			t.Fatalf("segment %d starts at %v, previous ended at %v", i, path[i].Start, path[i-1].End)
		}
	}
	dur := obs.PathDuration(path)
	if dur != maxEnd(tl) {
		t.Errorf("PathDuration = %v, MaxEnd = %v; want equal", dur, maxEnd(tl))
	}
	// ...and the timeline's end matches the run's simulated wall clock
	// within 1% (the difference is the final bookkeeping tick after the
	// root span closes).
	if res.MaxElapsed <= 0 {
		t.Fatalf("MaxElapsed = %v, want > 0", res.MaxElapsed)
	}
	rel := float64(res.MaxElapsed-dur) / float64(res.MaxElapsed)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.01 {
		t.Errorf("critical path %v vs mpi.MaxElapsed %v: relative error %.4f > 1%%", dur, res.MaxElapsed, rel)
	}
}

func TestTraceSpanTree(t *testing.T) {
	res := traceRun(t, 5)
	for _, rt := range res.Timeline.Ranks {
		if rt.Root == nil || rt.Root.Name != "rank" {
			t.Fatalf("rank %d root = %+v, want a closed \"rank\" span", rt.Rank, rt.Root)
		}
		if rt.Root.Duration <= 0 {
			t.Errorf("rank %d root not closed: duration %v", rt.Rank, rt.Root.Duration)
		}
		// start and end of a span on the rank's clock.
		start := func(s *obs.Span) time.Duration { return s.Start.Sub(rt.Root.Start) }
		end := func(s *obs.Span) time.Duration { return start(s) + s.Duration }
		for _, name := range []string{
			"tree_build", "assign_owners", "warmup", "iteration",
			"source_gather", "up", "source_exchange",
			"density_gather", "density_exchange", "down", "leaf",
		} {
			sp := rt.Root.Find(name)
			if sp == nil {
				t.Errorf("rank %d has no %q span", rt.Rank, name)
				continue
			}
			if sp.Duration < 0 || start(sp) < 0 || end(sp) > rt.Root.Duration {
				t.Errorf("rank %d span %q [%v,%v] outside the rank's [0,%v]", rt.Rank, name, start(sp), end(sp), rt.Root.Duration)
			}
		}
		// Exchange spans carry traffic attributes.
		ex := rt.Root.Find("iteration").Find("source_exchange")
		if ex == nil {
			t.Fatalf("rank %d iteration has no source_exchange child", rt.Rank)
		}
		if ex.Attrs["bytes"] == "" || ex.Attrs["msgs"] == "" {
			t.Errorf("rank %d source_exchange attrs = %v, want bytes and msgs", rt.Rank, ex.Attrs)
		}
		// The compute spans are the engine's own pass spans, opened under
		// the iteration on the rank's clock around the exchanges: nothing
		// downstream starts before the densities are in, and the passes
		// stay inside the iteration.
		it := rt.Root.Find("iteration")
		up, down, leaf := it.Find("up"), it.Find("down"), it.Find("leaf")
		if up == nil || down == nil || leaf == nil {
			t.Fatalf("rank %d iteration lacks a pass span", rt.Rank)
		}
		if start(up) < end(it.Find("source_gather")) || end(up) > start(ex) {
			t.Errorf("rank %d up [%v,%v] not between source_gather and source_exchange [%v,..]", rt.Rank, start(up), end(up), start(ex))
		}
		if de := it.Find("density_exchange"); start(down) < end(de) || start(leaf) < end(down) || end(leaf) > end(it) {
			t.Errorf("rank %d down [%v,%v] leaf [%v,%v] out of order after density_exchange ..%v] in iteration ..%v]",
				rt.Rank, start(down), end(down), start(leaf), end(leaf), end(de), end(it))
		}
		if down.Attrs["x_direct"] == "" || leaf.Attrs["w_direct"] == "" {
			t.Errorf("rank %d pass attrs: down %v leaf %v, want x_direct and w_direct", rt.Rank, down.Attrs, leaf.Attrs)
		}
		if lv := up.Find("level 2"); lv == nil || start(lv) < start(up) || end(lv) > end(up) {
			t.Errorf("rank %d up has no per-level child inside it: %+v", rt.Rank, lv)
		}
		if len(rt.Msgs) == 0 {
			t.Errorf("rank %d recorded no ledger entries", rt.Rank)
		}
	}
	if res.Timeline.TotalMessages() == 0 || res.Timeline.TotalBytes() == 0 {
		t.Errorf("timeline totals: %d msgs / %d bytes, want > 0",
			res.Timeline.TotalMessages(), res.Timeline.TotalBytes())
	}
}

// TestPassSpansOnVirtualClock: the engine opens its pass spans under the
// rank's iteration span, so they read the simulated transport's clock, not
// the wall clock. A rank whose clock is an hour ahead when it evaluates has
// its up span (and that span's levels) an hour into the rank's timeline —
// where no wall-clock span of a sub-second run could be — and the critical
// path over the skewed ranks still tiles [0, MaxEnd].
func TestPassSpansOnVirtualClock(t *testing.T) {
	rng := rand.New(rand.NewSource(9))
	patches := geom.SphereGrid(rng, 1200, 4, 0.22)
	pts := geom.Flatten(patches)
	den := geom.RandomDensities(rng, len(pts)/3, 1)
	eo, err := Options{Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 30}}.engine()
	if err != nil {
		t.Fatal(err)
	}
	const nproc = 3
	skew := func(r int) time.Duration { return time.Duration(r+1) * time.Hour }
	inputs, _ := PartitionPoints(pts, den, 1, nproc)
	tls := make([]*obs.RankTimeline, nproc)
	comms := mpi.Run(nproc, fastMachine(), func(c *mpi.Comm) {
		ro := eo
		ro.Workers, ro.Pool = 1, exec.NewElastic(1)
		rk := newRank(c, inputs[c.Rank()], ro, true)
		tls[c.Rank()] = rk.tl
		err := rk.run(context.Background(), func() error {
			c.AdvanceClock(skew(c.Rank()))
			_, err := rk.evaluate(context.Background(), "iteration")
			return err
		})
		if err != nil {
			t.Error(err)
		}
	})
	if t.Failed() {
		t.FailNow()
	}
	for _, rt := range tls {
		up := rt.Root.Find("iteration").Find("up")
		at := up.Start.Sub(rt.Root.Start)
		if at < skew(rt.Rank) || at > skew(nproc) {
			t.Errorf("rank %d: up starts %v into the timeline, want at or after the %v its clock was advanced", rt.Rank, at, skew(rt.Rank))
		}
		if lv := up.Find("level 2"); lv == nil || lv.Start.Before(up.Start) {
			t.Errorf("rank %d: up's level span %+v not on the rank's clock", rt.Rank, lv)
		}
		if tb := rt.Root.Find("tree_build"); tb.Start.Sub(rt.Root.Start)+tb.Duration > time.Hour {
			t.Errorf("rank %d: tree_build, before the advance, ends %v in", rt.Rank, tb.Start.Sub(rt.Root.Start)+tb.Duration)
		}
	}
	tl := obs.MergeTimeline(tls)
	dur := obs.PathDuration(tl.CriticalPath())
	if dur != maxEnd(tl) {
		t.Errorf("PathDuration = %v, MaxEnd = %v; want equal", dur, maxEnd(tl))
	}
	if me := mpi.MaxElapsed(comms); float64(me-dur) > 0.01*float64(me) || dur > me {
		t.Errorf("critical path %v vs mpi.MaxElapsed %v: more than 1%% apart", dur, me)
	}
}

// ledgerShape reduces a ledger to its deterministic structure: virtual
// timestamps vary run to run (compute is metered by wall clock), but
// the sequence of operations, peers, tags and byte counts must not.
func ledgerShape(tl *obs.Timeline) []string {
	var shape []string
	for _, rt := range tl.Ranks {
		for _, m := range rt.Msgs {
			shape = append(shape, fmt.Sprintf("r%d %s peer=%d tag=%d bytes=%d",
				rt.Rank, m.Kind, m.Peer, m.Tag, m.Bytes))
		}
	}
	return shape
}

func TestLedgerDeterministicAcrossReruns(t *testing.T) {
	first := traceRun(t, 11)
	second := traceRun(t, 11)
	a, b := ledgerShape(first.Timeline), ledgerShape(second.Timeline)
	if len(a) != len(b) {
		t.Fatalf("ledger sizes differ across reruns: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("ledger entry %d differs across reruns:\n  %s\n  %s", i, a[i], b[i])
		}
	}
}

func TestUntracedRunHasNoTimeline(t *testing.T) {
	rng := rand.New(rand.NewSource(2))
	patches := geom.SphereGrid(rng, 800, 4, 0.22)
	den := geom.RandomDensities(rng, geom.TotalCount(patches), 1)
	res, err := Evaluate(patches, den, 2, Options{
		Options: fmm.Options{Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 30},
		Machine: fastMachine(),
	})
	if err != nil {
		t.Fatalf("Evaluate: %v", err)
	}
	if res.Timeline != nil {
		t.Errorf("untraced run produced a timeline")
	}
	if res.MaxElapsed <= 0 {
		t.Errorf("MaxElapsed = %v, want > 0 even untraced", res.MaxElapsed)
	}
}

func TestTraceChromeExport(t *testing.T) {
	res := traceRun(t, 3)
	var buf bytes.Buffer
	if err := res.Timeline.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("Chrome trace is not valid JSON: %v", err)
	}
	if len(trace.TraceEvents) < 4 {
		t.Fatalf("trace has %d events, want at least the rank metadata", len(trace.TraceEvents))
	}
}

// maxEnd returns the latest root-span end over the timeline's ranks: the
// merged timeline's virtual wall clock.
func maxEnd(tl *obs.Timeline) time.Duration {
	var m time.Duration
	for _, rt := range tl.Ranks {
		m = max(m, rt.Root.Duration)
	}
	return m
}
