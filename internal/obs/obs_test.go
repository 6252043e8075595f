package obs

import (
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"
)

// TestExpositionGolden locks the exact Prometheus text rendering: the
// registry is fed deterministic values, so the full page is comparable
// byte for byte.
func TestExpositionGolden(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("requests_total", "Total requests.")
	c.Add(3)
	g := r.Gauge("lanes_in_use", "Lanes currently leased.")
	g.Set(2.5)
	r.GaugeFunc(
		"plans_live", "Live cached plans.",
		func() float64 { return 4 },
	)
	h := r.Histogram("latency_seconds", "Request latency.", []float64{0.1, 1})
	h.Observe(0.05)
	h.Observe(0.5)
	h.Observe(5)
	v := r.CounterVec("stage_runs_total", "Runs per stage.", "stage")
	v.With("up").Add(2)
	v.With("down").Inc()

	var b strings.Builder
	r.WritePrometheus(&b)
	want := `# HELP lanes_in_use Lanes currently leased.
# TYPE lanes_in_use gauge
lanes_in_use 2.5
# HELP latency_seconds Request latency.
# TYPE latency_seconds histogram
latency_seconds_bucket{le="0.1"} 1
latency_seconds_bucket{le="1"} 2
latency_seconds_bucket{le="+Inf"} 3
latency_seconds_sum 5.55
latency_seconds_count 3
# HELP plans_live Live cached plans.
# TYPE plans_live gauge
plans_live 4
# HELP requests_total Total requests.
# TYPE requests_total counter
requests_total 3
# HELP stage_runs_total Runs per stage.
# TYPE stage_runs_total counter
stage_runs_total{stage="down"} 1
stage_runs_total{stage="up"} 2
`
	if got := b.String(); got != want {
		t.Errorf("exposition mismatch:\n--- got ---\n%s\n--- want ---\n%s", got, want)
	}

	snap := r.Snapshot()
	for k, wantV := range map[string]float64{
		"requests_total":                 3,
		"lanes_in_use":                   2.5,
		"plans_live":                     4,
		"latency_seconds_count":          3,
		"latency_seconds_sum":            5.55,
		`stage_runs_total{stage="up"}`:   2,
		`stage_runs_total{stage="down"}`: 1,
	} {
		if snap[k] != wantV {
			t.Errorf("Snapshot[%q] = %g, want %g", k, snap[k], wantV)
		}
	}
}

// TestHistogramBucketEdges: le buckets are inclusive upper bounds.
func TestHistogramBucketEdges(t *testing.T) {
	r := NewRegistry()
	h := r.Histogram("h_seconds", "h", []float64{1, 2})
	h.Observe(1) // exactly on a bound: belongs to le="1"
	h.Observe(2)
	h.Observe(2.001)
	var b strings.Builder
	r.WritePrometheus(&b)
	for _, line := range []string{
		`h_seconds_bucket{le="1"} 1`,
		`h_seconds_bucket{le="2"} 2`,
		`h_seconds_bucket{le="+Inf"} 3`,
	} {
		if !strings.Contains(b.String(), line+"\n") {
			t.Errorf("missing %q in:\n%s", line, b.String())
		}
	}
}

func TestNameValidation(t *testing.T) {
	valid := []string{"a0", "requests_total", "stage_seconds", "x9_y"}
	for _, n := range valid {
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("MustValidName(%q) panicked: %v", n, r)
				}
			}()
			MustValidName(n)
		}()
	}
	invalid := []string{"", "Total", "http.requests", "a-b", "_x", "x_", "a__b", "9x", "kifmm:total"}
	for _, n := range invalid {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("MustValidName(%q) did not panic", n)
				}
			}()
			MustValidName(n)
		}()
	}

	// Duplicate registration panics too.
	r := NewRegistry()
	r.Counter("dup_total", "x")
	func() {
		defer func() {
			if recover() == nil {
				t.Error("duplicate registration did not panic")
			}
		}()
		r.Counter("dup_total", "x")
	}()
}

// TestRegistryRace hammers every instrument kind concurrently with
// scrapes; run under -race this is the concurrency contract of the
// registry (concurrent record + scrape must be clean).
func TestRegistryRace(t *testing.T) {
	r := NewRegistry()
	c := r.Counter("ops_total", "ops")
	g := r.Gauge("depth", "depth")
	h := r.Histogram("wait_seconds", "wait", ExpBuckets(0.001, 10, 4))
	cv := r.CounterVec("by_code_total", "by code", "code")
	hv := r.HistogramVec("stage_seconds", "stages", []float64{0.1, 1}, "stage")
	r.GaugeFunc("live", "live", func() float64 { return float64(c.Value()) })

	const perWorker = 500
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				c.Inc()
				g.Set(float64(i))
				g.Add(0.5)
				h.Observe(float64(i%7) / 100)
				cv.With(fmt.Sprintf("%d", 200+i%3)).Inc()
				hv.With([]string{"up", "down"}[i%2]).Observe(0.05)
			}
		}(w)
	}
	for i := 0; i < 50; i++ {
		var b strings.Builder
		r.WritePrometheus(&b)
		if !strings.Contains(b.String(), "# TYPE ops_total counter") {
			t.Fatal("scrape lost a family")
		}
		_ = r.Snapshot()
		_ = r.Families()
	}
	wg.Wait()

	if c.Value() != 8*perWorker {
		t.Errorf("counter = %d, want %d", c.Value(), 8*perWorker)
	}
	if h.Count() <= 0 || h.Sum() < 0 {
		t.Error("histogram did not record")
	}
}

// TestSpanRingBounded: the ring never holds more than its capacity no
// matter how many spans are added, and Recent returns newest first.
func TestSpanRingBounded(t *testing.T) {
	const capacity = 8
	ring := NewSpanRing(capacity)
	for i := 0; i < 10*capacity; i++ {
		s := StartSpan(fmt.Sprintf("eval-%d", i))
		s.End()
		ring.Add(s)
		if n := len(ring.Recent(0)); n > capacity {
			t.Fatalf("ring grew to %d > capacity %d", n, capacity)
		}
	}
	if n := len(ring.Recent(0)); n != capacity {
		t.Errorf("len(Recent(0)) = %d, want %d", n, capacity)
	}
	if ring.Total() != 10*capacity {
		t.Errorf("Total = %d, want %d", ring.Total(), 10*capacity)
	}
	recent := ring.Recent(3)
	if len(recent) != 3 {
		t.Fatalf("Recent(3) returned %d", len(recent))
	}
	for i, want := range []string{"eval-79", "eval-78", "eval-77"} {
		if recent[i].Name != want {
			t.Errorf("Recent[%d] = %q, want %q", i, recent[i].Name, want)
		}
	}
	if all := ring.Recent(0); len(all) != capacity {
		t.Errorf("Recent(0) returned %d, want all %d", len(all), capacity)
	}
	if over := ring.Recent(1000); len(over) != capacity {
		t.Errorf("Recent(1000) returned %d, want %d", len(over), capacity)
	}
}

// TestSpanTree: structure, nil-safety and duration accounting of the
// span builder.
func TestSpanTree(t *testing.T) {
	root := StartSpan("evaluate")
	up := root.StartChild("up")
	lvl := up.StartChild("level 3")
	time.Sleep(time.Millisecond)
	lvl.End()
	up.End()
	root.SetAttr("rhs", "4")
	root.End()
	d := root.Duration
	root.End() // idempotent
	if root.Duration != d {
		t.Error("second End changed the duration")
	}

	if root.Find("level 3") != lvl {
		t.Error("Find did not locate the grandchild")
	}
	if root.Find("nope") != nil {
		t.Error("Find invented a span")
	}
	if up.Duration <= 0 || up.Duration > root.Duration {
		t.Errorf("child duration %v outside root %v", up.Duration, root.Duration)
	}
	if lvl.Duration > up.Duration {
		t.Errorf("grandchild %v exceeds parent %v", lvl.Duration, up.Duration)
	}
	if root.Attrs["rhs"] != "4" {
		t.Errorf("attr lost: %v", root.Attrs)
	}

	// Nil receivers are inert end to end.
	var nilSpan *Span
	if nilSpan.StartChild("x") != nil {
		t.Error("nil StartChild returned a span")
	}
	nilSpan.End()
	nilSpan.SetAttr("k", "v")
	if nilSpan.Find("x") != nil {
		t.Error("nil Find returned a span")
	}
	NewSpanRing(3).Add(nil) // must not panic or count
}
