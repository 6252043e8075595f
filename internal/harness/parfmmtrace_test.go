package harness

import (
	"bytes"
	"encoding/json"
	"strings"
	"testing"
)

// TestRunParfmmTrace runs a small traced distributed experiment and
// checks the report invariants: critical path ≈ T(P), a renderable
// breakdown table, and a Chrome trace file that parses.
func TestRunParfmmTrace(t *testing.T) {
	rep, err := RunParfmmTrace(ParfmmTraceConfig{N: 1200})
	if err != nil {
		t.Fatalf("RunParfmmTrace: %v", err)
	}
	if rep.Config.Ranks != 4 || len(rep.Timeline.Ranks) != 4 {
		t.Fatalf("want the default 4 ranks, got config %d / timeline %d",
			rep.Config.Ranks, len(rep.Timeline.Ranks))
	}
	if rep.MaxElapsed <= 0 || rep.CriticalPathDur <= 0 {
		t.Fatalf("empty durations: %+v", rep)
	}
	rel := float64(rep.MaxElapsed-rep.CriticalPathDur) / float64(rep.MaxElapsed)
	if rel < 0 {
		rel = -rel
	}
	if rel > 0.01 {
		t.Errorf("critical path %v vs T(P) %v: relative error %.4f > 1%%",
			rep.CriticalPathDur, rep.MaxElapsed, rel)
	}
	if rep.CommMsgs <= 0 || rep.CommBytes <= 0 {
		t.Errorf("no communication recorded: %d msgs / %d bytes", rep.CommMsgs, rep.CommBytes)
	}
	for _, want := range []string{"distributed trace:", "critical path", "rank", "\nleaf "} {
		if !strings.Contains(rep.Table, want) {
			t.Errorf("table missing %q:\n%s", want, rep.Table)
		}
	}

	// The Chrome export (what CI uploads as the parfmm-trace artifact)
	// must be valid trace-event JSON.
	var buf bytes.Buffer
	if err := rep.Timeline.WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var trace struct {
		TraceEvents []map[string]any `json:"traceEvents"`
		DisplayUnit string           `json:"displayTimeUnit"`
	}
	if err := json.Unmarshal(buf.Bytes(), &trace); err != nil {
		t.Fatalf("Chrome trace does not parse: %v", err)
	}
	if len(trace.TraceEvents) == 0 || trace.DisplayUnit != "ms" {
		t.Fatalf("implausible Chrome trace: %d events, unit %q", len(trace.TraceEvents), trace.DisplayUnit)
	}
}
