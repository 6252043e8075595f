package service

import (
	"bytes"
	"encoding/json"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// tracedPost posts one JSON evaluation body with the given traceparent
// header ("" sends none) and returns the response's echoed Traceparent
// header.
func tracedPost(t *testing.T, url string, body any, traceparent string) string {
	t.Helper()
	raw, _ := json.Marshal(body)
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	if traceparent != "" {
		req.Header.Set("Traceparent", traceparent)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("evaluate status = %d", resp.StatusCode)
	}
	return resp.Header.Get("Traceparent")
}

// tracedEvaluate is tracedPost against a registered plan.
func tracedEvaluate(t *testing.T, ts *httptest.Server, planID string, den []float64, traceparent string) string {
	t.Helper()
	return tracedPost(t, ts.URL+"/v1/plans/"+planID+"/evaluate", EvaluateRequest{Densities: den}, traceparent)
}

// TestTraceparentAdoptedAndLinked: an evaluation's recent-eval span joins
// the caller's trace whichever engine ran it — the local one behind a
// plan, or the cluster behind a one-shot (whose span used to carry the
// request id only, so it could not be stitched under the caller's span).
func TestTraceparentAdoptedAndLinked(t *testing.T) {
	caller := obs.TraceContext{
		TraceID: "4bf92f3577b34da6a3ce929d0e0e4736",
		SpanID:  "00f067aa0ba902b7",
		Flags:   1,
	}
	req := cloudRequest(41, 200)
	for _, tc := range []struct {
		name, span string
		post       func(t *testing.T) (*Service, string)
	}{
		{"plan", "evaluate", func(t *testing.T) (*Service, string) {
			svc := New(Config{})
			ts := httptest.NewServer(NewServer(svc))
			t.Cleanup(ts.Close)
			info, err := svc.Register(bg, req)
			if err != nil {
				t.Fatal(err)
			}
			return svc, tracedEvaluate(t, ts, info.ID, densitiesFor(req, info.SourceDim), caller.Traceparent())
		}},
		{"cluster one-shot", "cluster_evaluate", func(t *testing.T) (*Service, string) {
			svc, _ := clusterService(t, len(req.Src)/3)
			ts := httptest.NewServer(NewServer(svc))
			t.Cleanup(ts.Close)
			body := OneShotRequest{PlanRequest: req, Densities: densitiesFor(req, 1)}
			return svc, tracedPost(t, ts.URL+"/v1/evaluate", body, caller.Traceparent())
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			svc, echoed := tc.post(t)

			// The response echoes the caller's trace id with the server's
			// own span id.
			etc, err := obs.ParseTraceparent(echoed)
			if err != nil {
				t.Fatalf("echoed traceparent %q: %v", echoed, err)
			}
			if etc.TraceID != caller.TraceID {
				t.Errorf("echoed trace id = %s, want the caller's %s", etc.TraceID, caller.TraceID)
			}
			if etc.SpanID == caller.SpanID {
				t.Error("echoed span id equals the caller's; the server must mint its own")
			}

			// The span adopted the trace: trace_id, its own span id, the
			// caller's span as parent, and the request id for log joins.
			recent := svc.RecentSpans(0)
			if len(recent) != 1 || recent[0].Name != tc.span {
				t.Fatalf("RecentSpans = %+v, want one %s span", recent, tc.span)
			}
			sp := recent[0]
			if sp.Attrs["trace_id"] != caller.TraceID {
				t.Errorf("span trace_id = %q, want %q", sp.Attrs["trace_id"], caller.TraceID)
			}
			if sp.Attrs["parent_span_id"] != caller.SpanID {
				t.Errorf("span parent_span_id = %q, want the caller's span %q", sp.Attrs["parent_span_id"], caller.SpanID)
			}
			if sp.Attrs["span_id"] != etc.SpanID {
				t.Errorf("span span_id = %q, want the echoed server span %q", sp.Attrs["span_id"], etc.SpanID)
			}
			if sp.Attrs["request_id"] == "" {
				t.Error("span has no request_id attribute")
			}
		})
	}
}

func TestTraceparentMalformedFallsBack(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req := cloudRequest(42, 200)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)

	for _, header := range []string{
		"", // absent
		"not-a-traceparent",
		"00-00000000000000000000000000000000-00f067aa0ba902b7-01",
	} {
		echoed := tracedEvaluate(t, ts, info.ID, den, header)
		etc, err := obs.ParseTraceparent(echoed)
		if err != nil {
			t.Fatalf("header %q: echoed traceparent %q invalid: %v", header, echoed, err)
		}
		if strings.Contains(header, etc.TraceID) {
			t.Errorf("header %q: server adopted a malformed trace id %q", header, etc.TraceID)
		}
	}
	recent := svc.RecentSpans(0)
	if len(recent) != 3 {
		t.Fatalf("RecentSpans = %d entries, want 3", len(recent))
	}
	for _, sp := range recent {
		if len(sp.Attrs["trace_id"]) != 32 {
			t.Errorf("fallback span trace_id = %q, want a generated 32-hex id", sp.Attrs["trace_id"])
		}
		if sp.Attrs["parent_span_id"] != "" {
			t.Errorf("fallback span has parent_span_id = %q, want none", sp.Attrs["parent_span_id"])
		}
	}
}

func TestRecentEvalsTraceIDFilter(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req := cloudRequest(43, 200)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)

	wanted := obs.NewTraceContext()
	tracedEvaluate(t, ts, info.ID, den, wanted.Traceparent())
	tracedEvaluate(t, ts, info.ID, den, obs.NewTraceContext().Traceparent())
	tracedEvaluate(t, ts, info.ID, den, "")

	resp, err := http.Get(ts.URL + "/v1/evals/recent?trace_id=" + wanted.TraceID)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recent RecentEvalsResponse
	if err := json.NewDecoder(resp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	if recent.Total != 3 {
		t.Errorf("Total = %d, want 3 (the filter narrows traces, not the total)", recent.Total)
	}
	if len(recent.Traces) != 1 {
		t.Fatalf("filtered traces = %d, want exactly the one under %s", len(recent.Traces), wanted.TraceID)
	}
	if got := recent.Traces[0].Attrs["trace_id"]; got != wanted.TraceID {
		t.Errorf("filtered trace id = %q, want %q", got, wanted.TraceID)
	}

	// An unknown trace id filters down to an empty (not null) list.
	resp2, err := http.Get(ts.URL + "/v1/evals/recent?trace_id=ffffffffffffffffffffffffffffffff")
	if err != nil {
		t.Fatal(err)
	}
	defer resp2.Body.Close()
	raw, _ := io.ReadAll(resp2.Body)
	var empty RecentEvalsResponse
	if err := json.Unmarshal(raw, &empty); err != nil {
		t.Fatal(err)
	}
	if len(empty.Traces) != 0 {
		t.Errorf("unknown trace id matched %d traces", len(empty.Traces))
	}
	if strings.Contains(string(raw), `"traces":null`) {
		t.Error("empty filter result marshals as null, want []")
	}
}

func TestSlowEvalCounterAndLog(t *testing.T) {
	var logBuf bytes.Buffer
	logger := slog.New(slog.NewJSONHandler(&logBuf, nil))
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc,
		WithLogger(logger), WithSlowEvalThreshold(time.Nanosecond)))
	defer ts.Close()

	req := cloudRequest(44, 200)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)
	tracedEvaluate(t, ts, info.ID, den, "")

	// Registration went through the Service directly, so only the HTTP
	// evaluate crossed the middleware — and at a 1ns threshold it is
	// always slow.
	if got := svc.m.evalSlow.Value(); got != 1 {
		t.Errorf("kifmm_eval_slow_total = %d, want 1", got)
	}

	// The WARN line carries slow=true, the request id and the trace id
	// (the log ↔ /v1/evals/recent join keys).
	var warn map[string]any
	for _, line := range strings.Split(strings.TrimSpace(logBuf.String()), "\n") {
		var rec map[string]any
		if err := json.Unmarshal([]byte(line), &rec); err != nil {
			t.Fatalf("bad log line %q: %v", line, err)
		}
		if rec["level"] == "WARN" {
			warn = rec
		}
	}
	if warn == nil {
		t.Fatal("no WARN log line for the slow request")
	}
	if warn["slow"] != true || warn["msg"] != "slow request" {
		t.Errorf("warn line = %v, want slow request marked slow=true", warn)
	}
	reqID, _ := warn["request_id"].(string)
	traceID, _ := warn["trace_id"].(string)
	if reqID == "" || len(traceID) != 32 {
		t.Fatalf("warn line ids: request_id=%q trace_id=%q, want both set", reqID, traceID)
	}
	sp := svc.RecentSpans(0)[0]
	if sp.Attrs["request_id"] != reqID || sp.Attrs["trace_id"] != traceID {
		t.Errorf("span ids (%q,%q) do not match the log line (%q,%q)",
			sp.Attrs["request_id"], sp.Attrs["trace_id"], reqID, traceID)
	}
}
