package service

import (
	"bytes"
	"context"
	"encoding/binary"
	"encoding/json"
	"io"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"

	kifmm "repro"
	"repro/internal/kernels"
)

// The golden bodies under testdata/golden were written by the commit
// before the single codec existed — requests by the client's encoders
// (client/wire.go, planBody, oneShotBody), responses by the server's
// writeEvalResponse / writeEvalBatchResponse — from the fixed inputs
// below. The frame side carries the bit patterns JSON cannot: NaNs with
// payloads, both infinities, negative zero.

func goldenFinite() []float64 {
	return []float64{0, 0.5, -1.25, 1e-300, 3, math.Copysign(0, -1), 7.5, 1.7976931348623157e308, 5e-324}
}

func goldenSpecial() []float64 {
	return []float64{
		math.Float64frombits(0x7ff8000000000001), // quiet NaN with payload
		math.Float64frombits(0xfff0000000000000), // -Inf
		math.Inf(1),
		math.Copysign(0, -1),
		math.Float64frombits(0x7ff4000000abcdef), // signalling NaN with payload
		1.5,
	}
}

func goldenPlan(vals []float64) PlanRequest {
	return PlanRequest{
		Src:    vals,
		Trg:    []float64{1, 2, 3, 4, 5, 6},
		Kernel: KernelSpec{Name: "stokes", Params: map[string]float64{"mu": 2}},
		Degree: 4, MaxPoints: 40, MaxDepth: 7,
	}
}

func goldenResponse(pots [][]float64, traced bool) EvaluateBatchResponse {
	resp := EvaluateBatchResponse{PlanID: "deadbeef", Potentials: pots, Stats: EvalStats{
		UpNanos: 1, DownUNanos: 22, DownVNanos: 333, DownWNanos: 4444, DownXNanos: 55555,
		EvalNanos: 666666, TotalNanos: 727021, Flops: 123456789012, GrantedLanes: 3,
	}}
	if traced {
		start := time.Date(2026, 1, 2, 3, 4, 5, 6, time.UTC)
		resp.Trace = &TraceSpan{
			Name: "evaluate", Start: start, Duration: 1500 * time.Microsecond,
			Attrs: map[string]string{"rhs": "1", "granted_lanes": "3", "plan_id": "deadbeef"},
			Children: []*TraceSpan{
				{Name: "up", Start: start.Add(time.Microsecond), Duration: 300 * time.Microsecond},
				{Name: "down", Start: start.Add(400 * time.Microsecond), Duration: time.Millisecond,
					Attrs: map[string]string{"x_direct": "0"}},
			},
		}
	}
	return resp
}

// bitsJSON renders a model value with every float64 as its bit pattern,
// so two values compare equal exactly when they are bitwise equal (NaN
// payloads and the sign of zero included).
func bitsJSON(t *testing.T, v any) string {
	t.Helper()
	var words func(vs [][]float64) [][]uint64
	words = func(vs [][]float64) [][]uint64 {
		if vs == nil {
			return nil
		}
		out := make([][]uint64, len(vs))
		for i, v := range vs {
			out[i] = make([]uint64, len(v))
			for j, x := range v {
				out[i][j] = math.Float64bits(x)
			}
		}
		return out
	}
	var flat any
	switch m := v.(type) {
	case Request:
		plan := m.PlanRequest
		plan.Src, plan.Trg = nil, nil
		flat = []any{plan, words([][]float64{m.Src, m.Trg}), m.Offset, words(m.Vectors)}
	case EvaluateBatchResponse:
		pots := m.Potentials
		m.Potentials = nil
		flat = []any{m, words(pots)}
	}
	raw, err := json.Marshal(flat)
	if err != nil {
		t.Fatal(err)
	}
	return string(raw)
}

func readGolden(t *testing.T, name string) []byte {
	t.Helper()
	b, err := os.ReadFile(filepath.Join("testdata", "golden", name))
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenWireBytes: every request and response body of the five bulk
// endpoints, in both encodings, is byte for byte what the parent commit
// put on the wire, and decodes back to the model it was encoded from.
func TestGoldenWireBytes(t *testing.T) {
	for _, frame := range []bool{false, true} {
		ext, vals := ".json", goldenFinite()
		if frame {
			ext, vals = ".frame", goldenSpecial()
		}
		dens := [][]float64{vals, goldenFinite(), {}}
		upload := PlanRequest{SrcUpload: "up1-abc", TrgUpload: "up2-def", Kernel: KernelSpec{Name: "laplace"}}
		requests := []struct {
			file  string
			shape Shape
			req   Request
		}{
			{"req_plan", ShapePlan, Request{PlanRequest: goldenPlan(vals)}},
			{"req_plan_upload", ShapePlan, Request{PlanRequest: upload}},
			{"req_oneshot", ShapeOneShot, Request{PlanRequest: goldenPlan(vals), Vectors: [][]float64{vals}}},
			{"req_evaluate", ShapeVector, Request{Vectors: [][]float64{vals}}},
			{"req_evaluate_batch", ShapeBatch, Request{Vectors: dens}},
		}
		if frame {
			requests = append(requests, struct {
				file  string
				shape Shape
				req   Request
			}{"req_upload_chunk", ShapeChunk, Request{Offset: 5, Vectors: [][]float64{goldenSpecial()}}})
		}
		for _, tc := range requests {
			want := readGolden(t, tc.file+ext)
			got, ct, err := EncodeRequest(frame, tc.shape, tc.req)
			if err != nil {
				t.Fatalf("%s%s: %v", tc.file, ext, err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("%s%s: encoded body differs from the parent's bytes\n got %q\nwant %q", tc.file, ext, got, want)
			}
			if IsFrame(ct) != frame {
				t.Errorf("%s%s: Content-Type %q", tc.file, ext, ct)
			}
			back, err := decodeRequest(frame, tc.shape, bytes.NewReader(want))
			if err != nil {
				t.Fatalf("%s%s: decoding the golden body: %v", tc.file, ext, err)
			}
			if g, w := bitsJSON(t, back), bitsJSON(t, tc.req); g != w {
				t.Errorf("%s%s: decoded request\n got %s\nwant %s", tc.file, ext, g, w)
			}
		}

		for _, traced := range []bool{false, true} {
			suffix := ""
			if traced {
				suffix = "_traced"
			}
			for _, tc := range []struct {
				file  string
				shape Shape
				resp  EvaluateBatchResponse
			}{
				{"resp_evaluate", ShapeVector, goldenResponse([][]float64{vals}, traced)},
				{"resp_evaluate", ShapeOneShot, goldenResponse([][]float64{vals}, traced)},
				{"resp_evaluate_batch", ShapeBatch, goldenResponse(dens, traced)},
			} {
				name := tc.file + suffix + ext
				want := readGolden(t, name)
				got, ct, err := encodeResponse(frame, tc.shape, tc.resp)
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if !bytes.Equal(got, want) {
					t.Errorf("%s: encoded body differs from the parent's bytes\n got %q\nwant %q", name, got, want)
				}
				if IsFrame(ct) != frame {
					t.Errorf("%s: Content-Type %q", name, ct)
				}
				back, err := DecodeResponse(frame, tc.shape, bytes.NewReader(want))
				if err != nil {
					t.Fatalf("%s: decoding the golden body: %v", name, err)
				}
				if g, w := bitsJSON(t, back), bitsJSON(t, tc.resp); g != w {
					t.Errorf("%s: decoded response\n got %s\nwant %s", name, g, w)
				}
			}
		}
	}
}

// retiredKeys are request keys the service once read and now ignores:
// the dense M2L translation's "backend" and the pseudo-inverse cut
// "pinv_tol", which translate.NewSet decides alone.
var retiredKeys = []string{`"backend":"dense"`, `"pinv_tol":1e-9`}

// withKey puts key back into a request body before the closing brace of
// its JSON: the whole body, or a frame's meta (magic, u32 meta length,
// meta, binary arrays).
func withKey(frame bool, body []byte, key string) []byte {
	if !frame {
		at := bytes.LastIndexByte(body, '}')
		return append(append(append([]byte{}, body[:at]...), ","+key...), body[at:]...)
	}
	n := binary.LittleEndian.Uint32(body[4:8])
	meta := withKey(false, body[8:8+n], key)
	out := binary.LittleEndian.AppendUint32(append([]byte{}, body[:4]...), uint32(len(meta)))
	return append(append(out, meta...), body[8+n:]...)
}

// TestRetiredKeysIgnored: a plan or one-shot request that still carries a
// retired key decodes on both codecs to the request without it, and
// registers as the same plan.
func TestRetiredKeysIgnored(t *testing.T) {
	ts := httptest.NewServer(NewServer(New(Config{})))
	defer ts.Close()
	planID := func(frame bool, shape Shape, body []byte) string {
		route, ct := "/v1/plans", contentTypeJSON
		if shape == ShapeOneShot {
			route = "/v1/evaluate"
		}
		if frame {
			ct = ContentTypeFrame
		}
		resp, err := http.Post(ts.URL+route, ct, bytes.NewReader(body))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var got struct {
			ID string `json:"plan_id"`
		}
		if err := json.NewDecoder(resp.Body).Decode(&got); err != nil || resp.StatusCode/100 != 2 {
			t.Fatalf("%s: status %d, %v", route, resp.StatusCode, err)
		}
		return got.ID
	}
	// The golden geometry has a coordinate beyond the service's bound (and
	// the frame's holds NaNs): register a copy with finite, bounded values.
	bounded := goldenFinite()
	bounded[7] = 1
	for _, frame := range []bool{false, true} {
		ext, vals := ".json", goldenFinite()
		if frame {
			ext, vals = ".frame", goldenSpecial()
		}
		for _, tc := range []struct {
			file  string
			shape Shape
			req   func(vals []float64) Request
		}{
			{"req_plan", ShapePlan, func(vals []float64) Request { return Request{PlanRequest: goldenPlan(vals)} }},
			{"req_oneshot", ShapeOneShot, func(vals []float64) Request {
				return Request{PlanRequest: goldenPlan(vals), Vectors: [][]float64{vals}}
			}},
		} {
			cur, _, err := EncodeRequest(frame, tc.shape, tc.req(bounded))
			if err != nil {
				t.Fatal(err)
			}
			want := planID(frame, tc.shape, cur)
			for _, key := range retiredKeys {
				name := tc.file + ext + " with " + key
				got, err := decodeRequest(frame, tc.shape, bytes.NewReader(withKey(frame, readGolden(t, tc.file+ext), key)))
				if err != nil {
					t.Fatalf("%s: %v", name, err)
				}
				if g, w := bitsJSON(t, got), bitsJSON(t, tc.req(vals)); g != w {
					t.Errorf("%s: decoded\n got %s\nwant %s", name, g, w)
				}
				if id := planID(frame, tc.shape, withKey(frame, cur, key)); id != want {
					t.Errorf("%s: registered plan %s, the body without the key %s", name, id, want)
				}
			}
		}
	}
}

// FuzzCodec feeds arbitrary bytes to every frame decoder that faces a
// socket. None may panic, none may allocate beyond what the body can
// hold, and whatever decodes must survive encode and decode unchanged.
func FuzzCodec(f *testing.F) {
	names, err := filepath.Glob(filepath.Join("testdata", "golden", "*.frame"))
	if err != nil {
		f.Fatal(err)
	}
	for _, name := range names {
		body, err := os.ReadFile(name)
		if err != nil {
			f.Fatal(err)
		}
		for shape := ShapeVector; shape <= ShapeChunk; shape++ {
			f.Add(int(shape), body)
		}
	}
	f.Add(int(ShapeBatch), []byte("KFM1\xff\xff\xff\xff"))
	f.Fuzz(func(t *testing.T, s int, body []byte) {
		shape := Shape(s)
		if shape < ShapeVector || shape > ShapeChunk {
			return
		}
		// Decoded words cost eight body bytes each and every array its
		// count word (bar the two geometry arrays of a shape without
		// geometry): a decoder that trusted a length field would blow
		// through this.
		checkSize := func(what string, vs ...[]float64) {
			words := 0
			for _, v := range vs {
				words += len(v)
			}
			if 8*words > len(body) || 8*len(vs) > len(body)+16 {
				t.Fatalf("%s: decoded %d vectors of %d words from a %d-byte body", what, len(vs), words, len(body))
			}
		}
		if req, err := decodeRequest(true, shape, bytes.NewReader(body)); err == nil {
			checkSize("request", append([][]float64{req.Src, req.Trg}, req.Vectors...)...)
			again, _, err := EncodeRequest(true, shape, req)
			if err != nil {
				t.Fatalf("re-encoding a decoded request: %v", err)
			}
			back, err := decodeRequest(true, shape, bytes.NewReader(again))
			if err != nil {
				t.Fatalf("decoding a re-encoded request: %v", err)
			}
			if g, w := bitsJSON(t, back), bitsJSON(t, req); g != w {
				t.Fatalf("request changed across encode/decode\n got %s\nwant %s", g, w)
			}
		}
		if shape == ShapePlan || shape == ShapeChunk {
			return // routes that answer with plain JSON
		}
		if resp, err := DecodeResponse(true, shape, bytes.NewReader(body)); err == nil {
			checkSize("response", resp.Potentials...)
			again, _, err := encodeResponse(true, shape, resp)
			if err != nil {
				t.Fatalf("re-encoding a decoded response: %v", err)
			}
			back, err := DecodeResponse(true, shape, bytes.NewReader(again))
			if err != nil {
				t.Fatalf("decoding a re-encoded response: %v", err)
			}
			if g, w := bitsJSON(t, back), bitsJSON(t, resp); g != w {
				t.Fatalf("response changed across encode/decode\n got %s\nwant %s", g, w)
			}
		}
	})
}

// TestEvaluationRoutesAgree drives the three evaluation routes, with the
// request and the response each in both encodings and one and three
// vectors, through a real HTTP server: every potential vector must be
// bitwise the library's, and each request must advance
// kifmm_wire_encoding_total by exactly one per direction.
func TestEvaluationRoutesAgree(t *testing.T) {
	svc := New(Config{MaxWorkers: 2})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	plan := cloudRequest(23, 220)
	info, err := svc.Register(bg, plan)
	if err != nil {
		t.Fatal(err)
	}
	k, err := kernels.FromSpec(plan.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	ev, err := kifmm.NewEvaluatorCtx(bg, plan.Src, plan.Src, kifmm.Options{Kernel: k, Degree: plan.Degree, MaxPoints: plan.MaxPoints})
	if err != nil {
		t.Fatal(err)
	}
	defer ev.Close()
	dens := make([][]float64, 3)
	for q := range dens {
		dens[q] = densitiesFor(plan, info.SourceDim)
		for i := range dens[q] {
			dens[q][i] *= float64(q + 1)
		}
	}
	// A batch is its vectors bit for bit, so the library's batch of three
	// is the reference for every n.
	want, err := ev.EvaluateBatchCtx(bg, dens)
	if err != nil {
		t.Fatal(err)
	}

	count := func(encoding string) float64 {
		return svc.MetricsRegistry().Snapshot()[`kifmm_wire_encoding_total{encoding="`+encoding+`"}`]
	}
	for _, route := range []struct {
		shape Shape
		path  string
	}{
		{ShapeVector, "/v1/plans/" + info.ID + "/evaluate"},
		{ShapeBatch, "/v1/plans/" + info.ID + "/evaluate_batch"},
		{ShapeOneShot, "/v1/evaluate"},
	} {
		for _, n := range []int{1, 3} {
			if n > 1 && route.shape != ShapeBatch {
				continue // the single-vector routes carry exactly one
			}
			for _, reqFrame := range []bool{false, true} {
				for _, respFrame := range []bool{false, true} {
					name := route.shape.String() + " " + encodingOf(reqFrame) + "->" + encodingOf(respFrame)
					req := Request{Vectors: dens[:n]}
					if route.shape == ShapeOneShot {
						req.PlanRequest = plan
					}
					body, ct, err := EncodeRequest(reqFrame, route.shape, req)
					if err != nil {
						t.Fatal(err)
					}
					hreq, err := http.NewRequest(http.MethodPost, ts.URL+route.path, bytes.NewReader(body))
					if err != nil {
						t.Fatal(err)
					}
					hreq.Header.Set("Content-Type", ct)
					if respFrame {
						hreq.Header.Set("Accept", ContentTypeFrame+", application/json")
					}
					before := map[string]float64{"json": count("json"), "frame": count("frame")}
					hresp, err := http.DefaultClient.Do(hreq)
					if err != nil {
						t.Fatal(err)
					}
					raw, err := io.ReadAll(hresp.Body)
					hresp.Body.Close()
					if err != nil || hresp.StatusCode != http.StatusOK {
						t.Fatalf("%s: status %d, %v: %s", name, hresp.StatusCode, err, raw)
					}
					if got := IsFrame(hresp.Header.Get("Content-Type")); got != respFrame {
						t.Fatalf("%s: response Content-Type %q", name, hresp.Header.Get("Content-Type"))
					}
					resp, err := DecodeResponse(respFrame, route.shape, bytes.NewReader(raw))
					if err != nil {
						t.Fatalf("%s: %v", name, err)
					}
					if resp.PlanID != info.ID || resp.Stats.TotalNanos <= 0 || resp.Trace != nil {
						t.Errorf("%s: plan %q stats %+v trace %v", name, resp.PlanID, resp.Stats, resp.Trace)
					}
					if len(resp.Potentials) != n {
						t.Fatalf("%s: %d potential vectors, want %d", name, len(resp.Potentials), n)
					}
					for q := range resp.Potentials {
						for i, v := range resp.Potentials[q] {
							if math.Float64bits(v) != math.Float64bits(want[q][i]) {
								t.Fatalf("%s: potentials[%d][%d] = %v, the library computes %v", name, q, i, v, want[q][i])
							}
						}
					}
					wantCount := map[string]float64{"json": 0, "frame": 0}
					wantCount[encodingOf(reqFrame)]++
					wantCount[encodingOf(respFrame)]++
					for enc, d := range wantCount {
						if got := count(enc) - before[enc]; got != d {
							t.Errorf("%s: kifmm_wire_encoding_total{%s} advanced by %v, want %v", name, enc, got, d)
						}
					}
				}
			}
		}
	}
}

// TestIdempotencyStoresOnlyOutcomes: what the table keeps for replay is an
// outcome of the request — never a 5xx, and never what was written for a
// caller that had already gone (its own 499, or any status once the
// request context is done).
func TestIdempotencyStoresOnlyOutcomes(t *testing.T) {
	for _, tc := range []struct {
		name     string
		status   int
		hangUp   bool // the caller is gone by the time the handler returns
		replayed bool
	}{
		{"success", http.StatusOK, false, true},
		{"client error", http.StatusBadRequest, false, true},
		{"server error", http.StatusServiceUnavailable, false, false},
		{"canceled", StatusClientClosedRequest, false, false},
		{"answered after the caller left", http.StatusOK, true, false},
		{"rejected after the caller left", http.StatusBadRequest, true, false},
	} {
		s := NewServer(New(Config{}))
		runs := 0
		h := s.idempotent(func(w http.ResponseWriter, r *http.Request) {
			runs++
			writeBody(w, tc.status, contentTypeJSON, []byte(`{"run":`+strings.Repeat("1", runs)+`}`))
		})
		post := func(hangUp bool) *httptest.ResponseRecorder {
			r := httptest.NewRequest(http.MethodPost, "/v1/evaluate", nil)
			r.Header.Set("Idempotency-Key", "k")
			if hangUp {
				ctx, cancel := context.WithCancel(r.Context())
				cancel()
				r = r.WithContext(ctx)
			}
			rec := httptest.NewRecorder()
			h(rec, r)
			return rec
		}
		first := post(tc.hangUp)
		if stored := len(s.idem.m) == 1; stored != tc.replayed {
			t.Errorf("%s: entry stored = %v, want %v", tc.name, stored, tc.replayed)
		}
		second := post(false)
		if got := second.Header().Get("Idempotency-Replayed") == "true"; got != tc.replayed {
			t.Errorf("%s: second request replayed = %v, want %v", tc.name, got, tc.replayed)
		}
		if tc.replayed && (runs != 1 || !bytes.Equal(first.Body.Bytes(), second.Body.Bytes()) || second.Code != tc.status) {
			t.Errorf("%s: replay ran the handler %d times, status %d, body %q vs %q", tc.name, runs, second.Code, second.Body, first.Body)
		}
		if !tc.replayed && runs != 2 {
			t.Errorf("%s: handler ran %d times, want a fresh execution for the second request", tc.name, runs)
		}
	}
}
