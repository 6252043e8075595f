package service

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func postJSON(t *testing.T, url string, body any) *http.Response {
	t.Helper()
	raw, err := json.Marshal(body)
	if err != nil {
		t.Fatal(err)
	}
	resp, err := http.Post(url, "application/json", bytes.NewReader(raw))
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

func decode[T any](t *testing.T, resp *http.Response) T {
	t.Helper()
	defer resp.Body.Close()
	var v T
	if err := json.NewDecoder(resp.Body).Decode(&v); err != nil {
		t.Fatal(err)
	}
	return v
}

func TestHTTPRoundTrip(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(3, 150)

	// Register: first time 201, second time 200 + cached.
	resp := postJSON(t, ts.URL+"/v1/plans", req)
	if resp.StatusCode != http.StatusCreated {
		t.Fatalf("register status = %d, want 201", resp.StatusCode)
	}
	info := decode[PlanInfo](t, resp)
	if info.ID == "" || info.Cached {
		t.Fatalf("fresh plan info = %+v", info)
	}
	resp = postJSON(t, ts.URL+"/v1/plans", req)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("re-register status = %d, want 200", resp.StatusCode)
	}
	if again := decode[PlanInfo](t, resp); !again.Cached || again.ID != info.ID {
		t.Fatalf("re-register info = %+v, want cached id %s", again, info.ID)
	}

	// Evaluate against the registered plan.
	den := densitiesFor(req, info.SourceDim)
	resp = postJSON(t, ts.URL+"/v1/plans/"+info.ID+"/evaluate", EvaluateRequest{Densities: den})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("evaluate status = %d, want 200", resp.StatusCode)
	}
	ev := decode[EvaluateResponse](t, resp)
	if len(ev.Potentials) != info.TrgCount*info.TargetDim {
		t.Fatalf("potentials length %d, want %d", len(ev.Potentials), info.TrgCount*info.TargetDim)
	}

	// One-shot evaluation hits the same cached plan and matches.
	resp = postJSON(t, ts.URL+"/v1/evaluate", OneShotRequest{PlanRequest: req, Densities: den})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("one-shot status = %d, want 200", resp.StatusCode)
	}
	once := decode[EvaluateResponse](t, resp)
	if once.PlanID != info.ID {
		t.Errorf("one-shot used plan %s, want cached %s", once.PlanID, info.ID)
	}
	if e := relErr(once.Potentials, ev.Potentials); e != 0 {
		t.Errorf("one-shot result differs from plan evaluate by %.3e", e)
	}
}

func TestHTTPEvaluateBatch(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(6, 120)
	resp := postJSON(t, ts.URL+"/v1/plans", req)
	info := decode[PlanInfo](t, resp)

	den := densitiesFor(req, info.SourceDim)
	single := decode[EvaluateResponse](t, postJSON(t,
		ts.URL+"/v1/plans/"+info.ID+"/evaluate", EvaluateRequest{Densities: den}))

	resp = postJSON(t, ts.URL+"/v1/plans/"+info.ID+"/evaluate_batch",
		EvaluateBatchRequest{Densities: [][]float64{den, den}})
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("batch status = %d, want 200", resp.StatusCode)
	}
	batch := decode[EvaluateBatchResponse](t, resp)
	if len(batch.Potentials) != 2 {
		t.Fatalf("batch returned %d vectors, want 2", len(batch.Potentials))
	}
	for q, pot := range batch.Potentials {
		if e := relErr(pot, single.Potentials); e > 1e-11 {
			t.Errorf("batch vector %d differs from single evaluation: %.3e", q, e)
		}
	}

	// Empty batch -> 400; unknown plan -> 404.
	resp = postJSON(t, ts.URL+"/v1/plans/"+info.ID+"/evaluate_batch", EvaluateBatchRequest{})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("empty batch status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
	resp = postJSON(t, ts.URL+"/v1/plans/deadbeef/evaluate_batch",
		EvaluateBatchRequest{Densities: [][]float64{den}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan batch status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()
}

func TestHTTPHealthAndVars(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	resp, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("healthz status = %d", resp.StatusCode)
	}
	h := decode[HealthResponse](t, resp)
	if h.Status != "ok" {
		t.Errorf("healthz status field = %q", h.Status)
	}

	if _, err := svc.Register(bg, cloudRequest(5, 90)); err != nil {
		t.Fatal(err)
	}
	// The service counters have one surface, /metrics; the expvar mirror
	// that used to sit beside it is gone.
	text := promText(t, ts.URL)
	for _, want := range []string{"kifmm_plans_built_total 1\n", "kifmm_plans_live 1\n"} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics after one registration lacks %q", want)
		}
	}
	resp, err = http.Get(ts.URL + "/debug/vars")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("GET /debug/vars status = %d, want 404", resp.StatusCode)
	}
}

func TestHTTPErrors(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	// Unknown plan -> 404.
	resp := postJSON(t, ts.URL+"/v1/plans/deadbeef/evaluate", EvaluateRequest{Densities: []float64{1}})
	if resp.StatusCode != http.StatusNotFound {
		t.Errorf("unknown plan status = %d, want 404", resp.StatusCode)
	}
	resp.Body.Close()

	// Invalid kernel -> 400 with a JSON error envelope.
	resp = postJSON(t, ts.URL+"/v1/plans", PlanRequest{Src: []float64{0, 0, 0}})
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("bad kernel status = %d, want 400", resp.StatusCode)
	}
	e := decode[errorResponse](t, resp)
	if e.Error == "" {
		t.Errorf("error envelope empty")
	}

	// Malformed JSON -> 400.
	resp, err := http.Post(ts.URL+"/v1/plans", "application/json", strings.NewReader("{nope"))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("malformed body status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// Wrong method -> 405 from the mux.
	resp, err = http.Get(ts.URL + "/v1/plans")
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Errorf("GET /v1/plans status = %d, want 405", resp.StatusCode)
	}
	resp.Body.Close()
}
