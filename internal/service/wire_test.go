package service

import (
	"bytes"
	"context"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/errs"
	"repro/internal/wire"
)

// postFrame sends a binary frame body, optionally asking for a frame
// response.
func postFrame(t *testing.T, url string, body []byte, acceptFrame bool) *http.Response {
	t.Helper()
	req, err := http.NewRequest(http.MethodPost, url, bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", ContentTypeFrame)
	if acceptFrame {
		req.Header.Set("Accept", ContentTypeFrame)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	return resp
}

// evalFrameBody assembles an evaluate request frame.
func evalFrameBody(den []float64) []byte {
	var w wire.Writer
	w.U32(wire.FrameMagic)
	w.F64s(den)
	return w.Bytes()
}

// parseEvalFrame splits an evaluate response frame.
func parseEvalFrame(t *testing.T, resp *http.Response) (meta []byte, pot []float64) {
	t.Helper()
	defer resp.Body.Close()
	if ct := resp.Header.Get("Content-Type"); ct != ContentTypeFrame {
		t.Fatalf("response Content-Type = %q, want %q", ct, ContentTypeFrame)
	}
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	if r.U32() != wire.FrameMagic {
		t.Fatalf("response frame missing magic")
	}
	meta = r.Raw()
	pot = r.F64s()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("malformed response frame: err=%v remaining=%d", r.Err(), r.Remaining())
	}
	return meta, pot
}

// TestReadJSONRejectsTrailingData: a body with trailing bytes after the
// JSON value is a 400, not a silent half-read. Regression test for the
// old readJSON, which decoded the first value and ignored the rest.
func TestReadJSONRejectsTrailingData(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	body := `{"words": 8}{"words": 9999}`
	resp, err := http.Post(ts.URL+"/v1/uploads", "application/json", strings.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("trailing-data body: status = %d, want 400", resp.StatusCode)
	}
	e := decode[map[string]string](t, resp)
	if e["code"] != "invalid_input" {
		t.Errorf("trailing-data body: code = %q, want invalid_input", e["code"])
	}
	if !strings.Contains(e["error"], "trailing") {
		t.Errorf("trailing-data body: error %q does not mention trailing data", e["error"])
	}
}

// TestBinaryEvaluateMatchesJSONBitwise: the same plan evaluated through
// the JSON and the frame paths returns bitwise-identical potentials,
// and the frame request/response round-trips without any float-text
// conversion.
func TestBinaryEvaluateMatchesJSONBitwise(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(11, 160)
	info := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	den := densitiesFor(req, info.SourceDim)
	evalURL := ts.URL + "/v1/plans/" + info.ID + "/evaluate"

	jsonResp := decode[EvaluateResponse](t, postJSON(t, evalURL, EvaluateRequest{Densities: den}))

	resp := postFrame(t, evalURL, evalFrameBody(den), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame evaluate status = %d, want 200", resp.StatusCode)
	}
	meta, pot := parseEvalFrame(t, resp)
	if !strings.Contains(string(meta), info.ID) {
		t.Errorf("frame meta %q does not carry plan id %s", meta, info.ID)
	}
	if len(pot) != len(jsonResp.Potentials) {
		t.Fatalf("frame potentials length %d, json %d", len(pot), len(jsonResp.Potentials))
	}
	for i := range pot {
		if math.Float64bits(pot[i]) != math.Float64bits(jsonResp.Potentials[i]) {
			t.Fatalf("potentials[%d] differ between encodings: %x vs %x",
				i, math.Float64bits(pot[i]), math.Float64bits(jsonResp.Potentials[i]))
		}
	}
}

// TestBinaryBatchEvaluate: the batch endpoint speaks frames in both
// directions and preserves vector order.
func TestBinaryBatchEvaluate(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(7, 120)
	info := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	den := densitiesFor(req, info.SourceDim)
	den2 := make([]float64, len(den))
	for i, v := range den {
		den2[i] = -v
	}

	var w wire.Writer
	w.U32(wire.FrameMagic)
	w.U32(2)
	w.F64s(den)
	w.F64s(den2)
	resp := postFrame(t, ts.URL+"/v1/plans/"+info.ID+"/evaluate_batch", w.Bytes(), true)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("frame batch status = %d, want 200", resp.StatusCode)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	r := wire.NewReader(raw)
	if r.U32() != wire.FrameMagic {
		t.Fatal("batch response missing magic")
	}
	r.Raw() // meta
	if n := r.U32(); n != 2 {
		t.Fatalf("batch response count = %d, want 2", n)
	}
	p0, p1 := r.F64s(), r.F64s()
	if r.Err() != nil || r.Remaining() != 0 {
		t.Fatalf("malformed batch frame: %v", r.Err())
	}
	// Laplace is linear: negated densities give negated potentials.
	for i := range p0 {
		if p0[i] != -p1[i] {
			t.Fatalf("batch vectors not negations at %d: %g vs %g", i, p0[i], p1[i])
		}
	}
}

// TestMalformedFrameIs400: truncated or non-frame bodies under the
// frame content type fail fast with a typed 400 naming the encoding.
func TestMalformedFrameIs400(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(5, 80)
	info := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	evalURL := ts.URL + "/v1/plans/" + info.ID + "/evaluate"

	good := evalFrameBody(densitiesFor(req, info.SourceDim))
	for name, body := range map[string][]byte{
		"json under frame type": []byte(`{"densities":[1,2,3]}`),
		"truncated":             good[:len(good)-5],
		"trailing bytes":        append(append([]byte{}, good...), 0xFF),
		"empty":                 {},
	} {
		resp := postFrame(t, evalURL, body, false)
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("%s: status = %d, want 400", name, resp.StatusCode)
		}
		e := decode[map[string]string](t, resp)
		if e["code"] != "invalid_input" {
			t.Errorf("%s: code = %q, want invalid_input", name, e["code"])
		}
		if !strings.Contains(e["error"], "malformed") {
			t.Errorf("%s: error %q does not say malformed", name, e["error"])
		}
	}
}

// chunkFrame assembles one upload-chunk body.
func chunkFrame(off uint64, words []float64) []byte {
	var w wire.Writer
	w.U32(wire.FrameMagic)
	w.U64(off)
	w.F64s(words)
	return w.Bytes()
}

// TestChunkedUploadFlow: create, append with a retry-style overlap and
// a rejected gap, poll the resume offset, then register a plan from
// the upload and check it evaluates identically to a direct
// registration.
func TestChunkedUploadFlow(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(9, 100)
	words := len(req.Src)
	st := decode[UploadStatus](t, postJSON(t, ts.URL+"/v1/uploads", UploadCreateRequest{Words: words}))
	if st.ID == "" || st.Words != words || st.ReceivedWords != 0 || st.Complete {
		t.Fatalf("fresh upload status = %+v", st)
	}
	upURL := ts.URL + "/v1/uploads/" + st.ID

	half := words / 2
	// A gap past the committed prefix is rejected before any copy.
	resp := postFrame(t, upURL, chunkFrame(uint64(half), req.Src[half:]), false)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("gap chunk status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	st = decode[UploadStatus](t, postFrame(t, upURL, chunkFrame(0, req.Src[:half]), false))
	if st.ReceivedWords != half || st.Complete {
		t.Fatalf("after first chunk: %+v", st)
	}
	// Re-sending a committed chunk (a client retrying a lost response)
	// is idempotent.
	st = decode[UploadStatus](t, postFrame(t, upURL, chunkFrame(0, req.Src[:half]), false))
	if st.ReceivedWords != half {
		t.Fatalf("idempotent re-send moved the prefix: %+v", st)
	}
	// Registration before completion is refused.
	partial := PlanRequest{SrcUpload: st.ID, Kernel: req.Kernel, Degree: req.Degree, MaxPoints: req.MaxPoints}
	resp = postJSON(t, ts.URL+"/v1/plans", partial)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("incomplete-upload registration status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()

	// GET reports the resume offset; finish from there.
	got, err := http.Get(upURL)
	if err != nil {
		t.Fatal(err)
	}
	st = decode[UploadStatus](t, got)
	if st.ReceivedWords != half {
		t.Fatalf("status endpoint reports %d, want %d", st.ReceivedWords, half)
	}
	st = decode[UploadStatus](t, postFrame(t, upURL, chunkFrame(uint64(half), req.Src[half:]), false))
	if !st.Complete {
		t.Fatalf("after final chunk: %+v", st)
	}

	// A plan from the upload matches a plan from inline coordinates.
	fromUpload := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", partial))
	direct := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	if fromUpload.ID != direct.ID {
		t.Fatalf("upload-built plan %s != direct plan %s", fromUpload.ID, direct.ID)
	}

	// src and src_upload together are ambiguous and refused.
	both := req
	both.SrcUpload = st.ID
	resp = postJSON(t, ts.URL+"/v1/plans", both)
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("src+src_upload status = %d, want 400", resp.StatusCode)
	}
	resp.Body.Close()
}

// TestCompletedUploadIsImmutable: the words of a completed upload never
// change once a plan may be built from them. An identical re-send of a
// committed chunk while a registration reads the upload writes nothing
// (clean under -race), and a chunk that disagrees with a committed word
// is rejected as invalid input with every word left as it was.
func TestCompletedUploadIsImmutable(t *testing.T) {
	svc := New(Config{})
	req := cloudRequest(21, 200)
	up, err := svc.uploads.create(len(req.Src))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.uploads.append(up.ID, 0, req.Src); err != nil {
		t.Fatal(err)
	}
	fromUpload := PlanRequest{SrcUpload: up.ID, Kernel: req.Kernel, Degree: req.Degree, MaxPoints: req.MaxPoints}
	done := make(chan error, 1)
	go func() {
		_, err := svc.Register(context.Background(), fromUpload)
		done <- err
	}()
	// Re-send until the registration ends, so some re-sends land while
	// it reads the words.
	for registered := false; !registered; {
		select {
		case err := <-done:
			if err != nil {
				t.Fatal(err)
			}
			registered = true
		default:
		}
		if _, err := svc.uploads.append(up.ID, 0, req.Src); err != nil {
			t.Fatalf("identical re-send of a committed chunk: %v", err)
		}
	}

	conflict := append([]float64(nil), req.Src[10:20]...)
	conflict[3] = math.Nextafter(conflict[3], 2)
	_, err = svc.uploads.append(up.ID, 10, conflict)
	if code, _ := errs.CodeOf(err); code != errs.CodeInvalidInput {
		t.Errorf("conflicting chunk: %v, want invalid_input", err)
	}
	words, err := svc.uploads.take(up.ID)
	if err != nil {
		t.Fatal(err)
	}
	for i := range words {
		if math.Float64bits(words[i]) != math.Float64bits(req.Src[i]) {
			t.Fatalf("word %d is %v after a rejected chunk, want %v", i, words[i], req.Src[i])
		}
	}
}

// TestIdempotencyKeyReplays: two POSTs sharing an Idempotency-Key run
// the evaluation once; the second response is a byte-identical replay
// flagged with Idempotency-Replayed.
func TestIdempotencyKeyReplays(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req := cloudRequest(13, 90)
	info := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	den := densitiesFor(req, info.SourceDim)

	do := func(key string) (*http.Response, []byte) {
		hreq, err := http.NewRequest(http.MethodPost,
			ts.URL+"/v1/plans/"+info.ID+"/evaluate", bytes.NewReader(evalFrameBody(den)))
		if err != nil {
			t.Fatal(err)
		}
		hreq.Header.Set("Content-Type", ContentTypeFrame)
		hreq.Header.Set("Accept", ContentTypeFrame)
		hreq.Header.Set("Idempotency-Key", key)
		resp, err := http.DefaultClient.Do(hreq)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		body, err := io.ReadAll(resp.Body)
		if err != nil {
			t.Fatal(err)
		}
		return resp, body
	}

	before := svc.m.evaluations.Value()
	r1, b1 := do("key-same")
	if r1.StatusCode != http.StatusOK || r1.Header.Get("Idempotency-Replayed") != "" {
		t.Fatalf("first attempt: status %d, replayed %q", r1.StatusCode, r1.Header.Get("Idempotency-Replayed"))
	}
	r2, b2 := do("key-same")
	if r2.StatusCode != http.StatusOK || r2.Header.Get("Idempotency-Replayed") != "true" {
		t.Fatalf("replay: status %d, replayed %q", r2.StatusCode, r2.Header.Get("Idempotency-Replayed"))
	}
	if !bytes.Equal(b1, b2) {
		t.Fatal("replayed body differs from the original")
	}
	if got := svc.m.evaluations.Value() - before; got != 1 {
		t.Errorf("evaluations ran %d times under one key, want 1", got)
	}
	// A different key evaluates afresh.
	r3, _ := do("key-other")
	if r3.Header.Get("Idempotency-Replayed") != "" {
		t.Error("fresh key was replayed")
	}
	if got := svc.m.evaluations.Value() - before; got != 2 {
		t.Errorf("evaluations = %d after a second key, want 2", got)
	}
}

// TestNonFinitePotentials: overflowing densities make the JSON path
// fail with a typed 400 naming the first bad output, while the frame
// path delivers the same values bit-exactly.
func TestNonFinitePotentials(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()

	req := cloudRequest(17, 70)
	info := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	den := make([]float64, info.SrcCount*info.SourceDim)
	for i := range den {
		den[i] = math.MaxFloat64
	}
	evalURL := ts.URL + "/v1/plans/" + info.ID + "/evaluate"

	resp := postJSON(t, evalURL, EvaluateRequest{Densities: den})
	if resp.StatusCode != http.StatusBadRequest {
		t.Fatalf("non-finite JSON status = %d, want 400", resp.StatusCode)
	}
	e := decode[map[string]string](t, resp)
	if e["code"] != "invalid_input" {
		t.Errorf("non-finite code = %q, want invalid_input", e["code"])
	}
	if !strings.Contains(e["error"], "potentials[") || !strings.Contains(e["error"], ContentTypeFrame) {
		t.Errorf("non-finite error %q should name the output and the frame escape hatch", e["error"])
	}

	// The binary path carries the same evaluation, non-finite bits and
	// all.
	fresp := postFrame(t, evalURL, evalFrameBody(den), true)
	if fresp.StatusCode != http.StatusOK {
		t.Fatalf("non-finite frame status = %d, want 200", fresp.StatusCode)
	}
	_, pot := parseEvalFrame(t, fresp)
	nonFinite := 0
	for _, v := range pot {
		if math.IsInf(v, 0) || math.IsNaN(v) {
			nonFinite++
		}
	}
	if nonFinite == 0 {
		t.Fatalf("expected non-finite potentials, got all finite (first: %v)", pot[0])
	}
}

// TestWireMetricsCount: the negotiated encodings and body sizes land in
// the new counters.
func TestWireMetricsCount(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	req := cloudRequest(19, 60)
	info := decode[PlanInfo](t, postJSON(t, ts.URL+"/v1/plans", req))
	den := densitiesFor(req, info.SourceDim)
	evalURL := ts.URL + "/v1/plans/" + info.ID + "/evaluate"
	decode[EvaluateResponse](t, postJSON(t, evalURL, EvaluateRequest{Densities: den}))
	parseEvalFrame(t, postFrame(t, evalURL, evalFrameBody(den), true))

	text := promText(t, ts.URL)
	for _, want := range []string{
		`kifmm_wire_encoding_total{encoding="json"}`,
		`kifmm_wire_encoding_total{encoding="frame"}`,
		"kifmm_http_request_bytes_total",
		"kifmm_http_response_bytes_total",
	} {
		if !strings.Contains(text, want) {
			t.Errorf("/metrics missing %s", want)
		}
	}
}

// promText fetches the Prometheus exposition.
func promText(t *testing.T, base string) string {
	t.Helper()
	resp, err := http.Get(base + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	raw, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("/metrics status %d: %s", resp.StatusCode, raw)
	}
	return string(raw)
}
