package parfmm

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math/rand"
	"testing"

	"repro/internal/geom"
	"repro/internal/kernels"
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
		Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 30,
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
	if dur != tl.MaxEnd() {
		t.Errorf("PathDuration = %v, MaxEnd = %v; want equal", dur, tl.MaxEnd())
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
		if rt.Root.End <= rt.Root.Start {
			t.Errorf("rank %d root not closed: [%v,%v]", rt.Rank, rt.Root.Start, rt.Root.End)
		}
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
			if sp.End < sp.Start {
				t.Errorf("rank %d span %q has End %v < Start %v", rt.Rank, name, sp.End, sp.Start)
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
		// The compute spans are the engine's own pass spans, laid on the
		// rank's clock around the exchanges: nothing downstream starts
		// before the densities are in, and the passes stay inside the
		// iteration.
		it := rt.Root.Find("iteration")
		up, down, leaf := it.Find("up"), it.Find("down"), it.Find("leaf")
		if up == nil || down == nil || leaf == nil {
			t.Fatalf("rank %d iteration lacks a pass span", rt.Rank)
		}
		if up.Start < it.Find("source_gather").End || up.End > ex.Start {
			t.Errorf("rank %d up [%v,%v] not between source_gather and source_exchange [%v,..]", rt.Rank, up.Start, up.End, ex.Start)
		}
		if de := it.Find("density_exchange"); down.Start < de.End || leaf.Start < down.End || leaf.End > it.End {
			t.Errorf("rank %d down [%v,%v] leaf [%v,%v] out of order after density_exchange ..%v] in iteration ..%v]",
				rt.Rank, down.Start, down.End, leaf.Start, leaf.End, de.End, it.End)
		}
		if down.Attrs["x_direct"] == "" || leaf.Attrs["w_direct"] == "" {
			t.Errorf("rank %d pass attrs: down %v leaf %v, want x_direct and w_direct", rt.Rank, down.Attrs, leaf.Attrs)
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
		Kernel: kernels.Laplace{}, Degree: 4, MaxPoints: 30,
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
