package service

import (
	"bufio"
	"encoding/json"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
)

// promSample is one parsed exposition line: name, label set (as the raw
// {...} text) and value.
type promSample struct {
	name   string
	labels string
	value  float64
}

// parsePrometheus is a strict-enough parser for the 0.0.4 text format:
// it validates comment structure (# HELP before # TYPE, known types),
// sample lines against their declared family, and returns samples plus
// the name->type map.
func parsePrometheus(t *testing.T, r io.Reader) (map[string]string, []promSample) {
	t.Helper()
	types := make(map[string]string)
	helps := make(map[string]bool)
	var samples []promSample
	// Label values may contain "}" (e.g. route patterns), so the label
	// block is matched greedily; the value is the last space-separated
	// token.
	lineRE := regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{.*\})? (\S+)$`)
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		line := sc.Text()
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# HELP "), " ", 2)
			helps[parts[0]] = true
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.SplitN(strings.TrimPrefix(line, "# TYPE "), " ", 2)
			if len(parts) != 2 {
				t.Fatalf("malformed TYPE line: %q", line)
			}
			name, typ := parts[0], parts[1]
			if typ != "counter" && typ != "gauge" && typ != "histogram" {
				t.Fatalf("unknown metric type %q in %q", typ, line)
			}
			if !helps[name] {
				t.Fatalf("# TYPE %s without preceding # HELP", name)
			}
			types[name] = typ
			continue
		}
		if strings.HasPrefix(line, "#") {
			t.Fatalf("unexpected comment line: %q", line)
		}
		m := lineRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed sample line: %q", line)
		}
		v, err := strconv.ParseFloat(m[3], 64)
		if err != nil {
			t.Fatalf("bad value in %q: %v", line, err)
		}
		base := strings.TrimSuffix(strings.TrimSuffix(m[1], "_sum"), "_count")
		base = strings.TrimSuffix(base, "_bucket")
		if _, ok := types[base]; !ok {
			if _, ok := types[m[1]]; !ok {
				t.Fatalf("sample %q has no # TYPE declaration", line)
			}
		}
		samples = append(samples, promSample{name: m[1], labels: m[2], value: v})
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
	return types, samples
}

func findSample(samples []promSample, name, labelSub string) (promSample, bool) {
	for _, s := range samples {
		if s.name == name && strings.Contains(s.labels, labelSub) {
			return s, true
		}
	}
	return promSample{}, false
}

// TestMetricsEndpointExposition drives a real evaluation through the
// HTTP server and checks GET /metrics: parseable 0.0.4 text with at
// least one counter, gauge and histogram reflecting that evaluation.
func TestMetricsEndpointExposition(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req := cloudRequest(31, 300)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)
	body, _ := json.Marshal(EvaluateRequest{Densities: den})
	resp, err := http.Post(ts.URL+"/v1/plans/"+info.ID+"/evaluate", "application/json", strings.NewReader(string(body)))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != 200 {
		t.Fatalf("evaluate status = %d", resp.StatusCode)
	}

	mresp, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer mresp.Body.Close()
	if ct := mresp.Header.Get("Content-Type"); !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want text/plain; version=0.0.4", ct)
	}
	types, samples := parsePrometheus(t, mresp.Body)

	// Counter fed by the evaluation.
	if types["kifmm_evaluations_total"] != "counter" {
		t.Fatalf("kifmm_evaluations_total type = %q, want counter", types["kifmm_evaluations_total"])
	}
	if s, ok := findSample(samples, "kifmm_evaluations_total", ""); !ok || s.value != 1 {
		t.Errorf("kifmm_evaluations_total = %+v, want 1", s)
	}
	// Gauge fed by the registered plan.
	if types["kifmm_plans_live"] != "gauge" {
		t.Fatalf("kifmm_plans_live type = %q, want gauge", types["kifmm_plans_live"])
	}
	if s, ok := findSample(samples, "kifmm_plans_live", ""); !ok || s.value != 1 {
		t.Errorf("kifmm_plans_live = %+v, want 1", s)
	}
	// Histogram fed by the evaluation: count 1, positive sum, cumulative
	// buckets ending in +Inf == count.
	if types["kifmm_eval_seconds"] != "histogram" {
		t.Fatalf("kifmm_eval_seconds type = %q, want histogram", types["kifmm_eval_seconds"])
	}
	cnt, ok := findSample(samples, "kifmm_eval_seconds_count", "")
	if !ok || cnt.value != 1 {
		t.Errorf("kifmm_eval_seconds_count = %+v, want 1", cnt)
	}
	if s, ok := findSample(samples, "kifmm_eval_seconds_sum", ""); !ok || s.value <= 0 {
		t.Errorf("kifmm_eval_seconds_sum = %+v, want > 0", s)
	}
	var prev float64 = -1
	var infSeen bool
	for _, s := range samples {
		if s.name != "kifmm_eval_seconds_bucket" {
			continue
		}
		if s.value < prev {
			t.Errorf("bucket %s not cumulative: %v < %v", s.labels, s.value, prev)
		}
		prev = s.value
		if strings.Contains(s.labels, `le="+Inf"`) {
			infSeen = true
			if s.value != cnt.value {
				t.Errorf("+Inf bucket = %v, want count %v", s.value, cnt.value)
			}
		}
	}
	if !infSeen {
		t.Error("kifmm_eval_seconds has no +Inf bucket")
	}
	// Stage histogram picked up the sweep (label present, count 1).
	if s, ok := findSample(samples, "kifmm_stage_seconds_count", `stage="up"`); !ok || s.value != 1 {
		t.Errorf(`kifmm_stage_seconds_count{stage="up"} = %+v, want 1`, s)
	}
	// HTTP middleware recorded the evaluate request.
	if s, ok := findSample(samples, "kifmm_http_requests_total", `route="POST /v1/plans/{id}/evaluate"`); !ok || s.value != 1 {
		t.Errorf("kifmm_http_requests_total evaluate route = %+v, want 1", s)
	}
}

// TestTraceConsistentWithStats runs a width-1 traced evaluation and
// cross-checks the span tree against the reported per-stage stats: at
// one lane, compute time is wall time, so each pass span must cover its
// stages and the root must cover the stats total.
func TestTraceConsistentWithStats(t *testing.T) {
	svc := New(Config{MaxWorkers: 1})
	req := cloudRequest(32, 500)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)
	res, err := svc.Evaluate(bg, info.ID, [][]float64{den})
	if err != nil {
		t.Fatal(err)
	}
	st, span := res.Stats, res.Trace
	if span == nil || span.Name != "evaluate" {
		t.Fatalf("trace root = %+v, want evaluate span", span)
	}
	if span.Attrs["rhs"] != "1" || span.Attrs["granted_lanes"] != "1" || span.Attrs["plan_id"] != info.ID {
		t.Errorf("root attrs = %v, want rhs=1 granted_lanes=1 plan_id=%s", span.Attrs, info.ID)
	}
	for _, name := range []string{"permute", "up", "down", "leaf", "unpermute"} {
		if span.Find(name) == nil {
			t.Errorf("trace missing %q child", name)
		}
	}
	if span.Duration <= 0 {
		t.Fatal("root span never ended")
	}
	var childSum time.Duration
	for _, c := range span.Children {
		if c.Duration <= 0 && c.Name != "permute" && c.Name != "unpermute" {
			t.Errorf("child %q never ended", c.Name)
		}
		childSum += c.Duration
	}
	if childSum > span.Duration {
		t.Errorf("children sum %v exceeds root %v", childSum, span.Duration)
	}

	// Stats durations are compute time summed across lanes; at one lane
	// that is wall time, so the covering span can only be larger.
	total := time.Duration(st.TotalNanos)
	if span.Duration < total {
		t.Errorf("root span %v < stats total %v at width 1", span.Duration, total)
	}
	if up := span.Find("up"); up.Duration < time.Duration(st.UpNanos) {
		t.Errorf("up span %v < up stat %v", up.Duration, time.Duration(st.UpNanos))
	}
	// The remaining stages split across the down and leaf passes (the
	// eval stat accumulates in both: DC-surface evaluation during the
	// downward sweep, L2T during leaf evaluation), so only their union
	// is a covering interval.
	downLeafStats := time.Duration(st.DownUNanos + st.DownVNanos + st.DownWNanos + st.DownXNanos + st.EvalNanos)
	if got := span.Find("down").Duration + span.Find("leaf").Duration; got < downLeafStats {
		t.Errorf("down+leaf spans %v < U+V+W+X+Eval stats %v", got, downLeafStats)
	}

	// The levels of a pass nest under it and stay within its interval.
	down := span.Find("down")
	if len(down.Children) == 0 {
		t.Error("down pass recorded no level spans")
	}
	var levels time.Duration
	for _, l := range down.Children {
		if !strings.HasPrefix(l.Name, "level ") {
			t.Errorf("down child %q, want level spans", l.Name)
		}
		levels += l.Duration
	}
	if levels > down.Duration {
		t.Errorf("level spans sum %v exceeds down pass %v", levels, down.Duration)
	}

	// The same tree is retained for GET /v1/evals/recent.
	recent := svc.RecentSpans(0)
	if len(recent) != 1 || recent[0] != span {
		t.Errorf("RecentSpans = %v, want the one traced evaluation", recent)
	}
}

// TestRecentEvalsEndpoint checks the HTTP view of the span ring: ?trace=1
// echoes the tree per response, and /v1/evals/recent serves it newest
// first with the ever-added total.
func TestRecentEvalsEndpoint(t *testing.T) {
	svc := New(Config{TraceRing: 2})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req := cloudRequest(33, 200)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)
	body, _ := json.Marshal(EvaluateRequest{Densities: den})
	for i := 0; i < 3; i++ {
		url := ts.URL + "/v1/plans/" + info.ID + "/evaluate"
		if i == 2 {
			url += "?trace=1"
		}
		resp, err := http.Post(url, "application/json", strings.NewReader(string(body)))
		if err != nil {
			t.Fatal(err)
		}
		var er EvaluateResponse
		if err := json.NewDecoder(resp.Body).Decode(&er); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if want := i == 2; (er.Trace != nil) != want {
			t.Errorf("request %d: trace present = %v, want %v", i, er.Trace != nil, want)
		}
		if i == 2 && er.Trace.Find("up") == nil {
			t.Errorf("echoed trace has no up span: %+v", er.Trace)
		}
	}

	resp, err := http.Get(ts.URL + "/v1/evals/recent?n=5")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	var recent RecentEvalsResponse
	if err := json.NewDecoder(resp.Body).Decode(&recent); err != nil {
		t.Fatal(err)
	}
	if recent.Total != 3 {
		t.Errorf("Total = %d, want 3 (ring evictions still count)", recent.Total)
	}
	if len(recent.Traces) != 2 {
		t.Errorf("len(Traces) = %d, want ring capacity 2", len(recent.Traces))
	}
	for i, tr := range recent.Traces {
		if tr.Name != "evaluate" {
			t.Errorf("trace %d root = %q, want evaluate", i, tr.Name)
		}
	}
}

// TestMetricNamesLintedAndDocumented is the catalog guard: every
// registered family name must be snake_case and appear in the README's
// observability catalog, so the docs cannot silently drift from the
// code.
func TestMetricNamesLintedAndDocumented(t *testing.T) {
	readme, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatalf("reading README.md: %v", err)
	}
	snake := regexp.MustCompile(`^[a-z][a-z0-9]*(_[a-z0-9]+)*$`)
	svc := New(Config{})
	fams := svc.MetricsRegistry().Families()
	if len(fams) == 0 {
		t.Fatal("registry has no families")
	}
	for _, f := range fams {
		if !snake.MatchString(f.Name) {
			t.Errorf("metric %q is not snake_case", f.Name)
		}
		// MustValidName is the runtime guard; the regexp above is the
		// stricter lint. Both must agree that the name is fine.
		func() {
			defer func() {
				if r := recover(); r != nil {
					t.Errorf("obs.MustValidName rejects registered name %q: %v", f.Name, r)
				}
			}()
			obs.MustValidName(f.Name)
		}()
		if f.Help == "" {
			t.Errorf("metric %q registered without help text", f.Name)
		}
		if !strings.Contains(string(readme), f.Name) {
			t.Errorf("metric %q is not documented in README.md", f.Name)
		}
		for _, l := range f.Labels {
			if !snake.MatchString(l) {
				t.Errorf("metric %q label %q is not snake_case", f.Name, l)
			}
		}
	}
}
