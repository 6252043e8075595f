package service

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math"
	"mime"
	"net/http"
	"strings"

	"repro/internal/errs"
	"repro/internal/wire"
)

// This file is the wire: one request model and one response model, and
// two codecs — JSON and binary frames — over them, in both directions.
// The client encodes requests and decodes responses with the functions
// below; the server does the reverse; nothing else in the repository
// knows a body layout.
//
// The encoding is negotiated per request:
//
//	Content-Type: application/x-kifmm-frame   binary request body
//	Accept: application/x-kifmm-frame         binary response body
//
// JSON stays the default in both directions, and error responses are
// always JSON regardless of Accept — a client that cannot decode a
// frame can always decode what went wrong.
//
// Every frame body opens with wire.FrameMagic ("KFM1" as a
// little-endian u32) so a misrouted JSON or gzip body fails fast with
// a clear error. After the magic, the per-endpoint layouts are
//
//	POST /v1/plans                       magic, raw JSON header (PlanRequest
//	                                     sans src/trg), f64s src, f64s trg
//	                                     (empty = same as src)
//	POST /v1/plans/{id}/evaluate         magic, f64s densities
//	POST /v1/plans/{id}/evaluate_batch   magic, u32 count, count x f64s
//	POST /v1/evaluate                    magic, raw JSON header, f64s src,
//	                                     f64s trg, f64s densities
//	POST /v1/uploads/{id}                magic, u64 word offset, f64s chunk
//
//	evaluate response                    magic, raw JSON meta (plan_id,
//	                                     stats, trace), f64s potentials
//	evaluate_batch response              magic, raw JSON meta, u32 count,
//	                                     count x f64s
//
// using the shared internal/wire primitives (little-endian,
// u64-count-prefixed word arrays, u32-length-prefixed raw blobs).
// float64 words are IEEE 754 bits: NaN payloads, infinities and signed
// zeros round-trip bit-exactly, which the JSON path cannot do.
//
// Densities and potentials are one model, a batch of vectors
// ([][]float64): the single-vector layouts above are the batch of one
// written without its count, and the arrays a decoder returns go to the
// engine as they are — wrapped, never copied. Every function below that
// takes or returns raw float arrays uses only internal/wire;
// encoding/json touches the JSON bodies and the small headers riding
// inside frames (the nojsonhot analyzer enforces this).

// ContentTypeFrame is the negotiated binary media type.
const ContentTypeFrame = "application/x-kifmm-frame"

const contentTypeJSON = "application/json"

// Shape names the body layout of a route.
type Shape int

const (
	// ShapeVector is POST /v1/plans/{id}/evaluate: one density vector in,
	// one potential vector out.
	ShapeVector Shape = iota
	// ShapeBatch is POST /v1/plans/{id}/evaluate_batch: counted vectors.
	ShapeBatch
	// ShapeOneShot is POST /v1/evaluate: a plan plus one density vector;
	// it answers in the ShapeVector layout.
	ShapeOneShot
	// ShapePlan is POST /v1/plans: the plan alone.
	ShapePlan
	// ShapeChunk is POST /v1/uploads/{id}: a word offset and the words.
	// It exists as a frame only.
	ShapeChunk
)

// String names the shape as the malformed-frame errors do.
func (s Shape) String() string {
	switch s {
	case ShapeBatch:
		return "evaluate_batch"
	case ShapePlan:
		return "plan"
	case ShapeChunk:
		return "upload chunk"
	}
	return "evaluate"
}

// Request is the request model of every bulk route; the Shape says which
// fields a body carries.
type Request struct {
	// PlanRequest is the plan of ShapePlan and ShapeOneShot.
	PlanRequest
	// Offset is the word offset of a ShapeChunk body.
	Offset uint64
	// Vectors holds the density vectors, one per right-hand side — exactly
	// one for ShapeVector and ShapeOneShot — or the words of a chunk.
	Vectors [][]float64
}

// isFrameRequest reports whether the request body is the binary frame
// encoding (Content-Type media type, parameters ignored).
func isFrameRequest(r *http.Request) bool {
	return IsFrame(r.Header.Get("Content-Type"))
}

// IsFrame reports whether a Content-Type header names the binary frame
// encoding.
func IsFrame(contentType string) bool {
	mt, _, err := mime.ParseMediaType(contentType)
	return err == nil && mt == ContentTypeFrame
}

// wantsFrameResponse reports whether the client asked for a binary
// response (Accept lists the frame media type; weights are ignored —
// listing it at all opts in).
func wantsFrameResponse(r *http.Request) bool {
	for _, part := range strings.Split(r.Header.Get("Accept"), ",") {
		if IsFrame(strings.TrimSpace(part)) {
			return true
		}
	}
	return false
}

// encodingOf names a body's encoding for kifmm_wire_encoding_total.
func encodingOf(frame bool) string {
	if frame {
		return "frame"
	}
	return "json"
}

// sole returns the one vector of a shape that is not a batch.
func sole(vs [][]float64) []float64 {
	if len(vs) == 0 {
		return nil
	}
	return vs[0]
}

// putVectors appends vs in the layout of shape: a batch is counted, every
// other shape carries its one vector bare.
func putVectors(w *wire.Writer, shape Shape, vs [][]float64) {
	if shape != ShapeBatch {
		w.F64s(sole(vs))
		return
	}
	w.U32(uint32(len(vs)))
	for _, v := range vs {
		w.F64s(v)
	}
}

// getVectors is the inverse of putVectors. The caller checks r.Err.
func getVectors(r *wire.Reader, shape Shape) [][]float64 {
	if shape != ShapeBatch {
		return [][]float64{r.F64s()}
	}
	n := int(r.U32())
	// Each vector costs at least its 8-byte count word, so a corrupt
	// count cannot over-allocate the outer slice.
	if n > r.Remaining()/8 {
		return nil
	}
	vs := make([][]float64, n)
	for i := range vs {
		vs[i] = r.F64s()
	}
	return vs
}

// vectorsBytes bounds the encoded size of vs in either layout.
func vectorsBytes(vs [][]float64) int {
	n := 4
	for _, v := range vs {
		n += 8 + 8*len(v)
	}
	return n
}

// frameRequest assembles a request frame. hdr is the marshaled plan
// header of the shapes that have one.
func frameRequest(shape Shape, hdr []byte, req *Request) []byte {
	var w wire.Writer
	w.Grow(32 + len(hdr) + 8*(len(req.Src)+len(req.Trg)) + vectorsBytes(req.Vectors))
	w.U32(wire.FrameMagic)
	switch shape {
	case ShapePlan, ShapeOneShot:
		w.Raw(hdr)
		w.F64s(req.Src)
		w.F64s(req.Trg)
	case ShapeChunk:
		w.U64(req.Offset)
	}
	if shape != ShapePlan {
		putVectors(&w, shape, req.Vectors)
	}
	return w.Bytes()
}

// parseRequestFrame fills req with the words of a request frame and
// returns its plan header (nil for a shape without one); ok is false for
// any body that is not exactly one frame of the shape.
func parseRequestFrame(shape Shape, p []byte, req *Request) (hdr []byte, ok bool) {
	r := wire.NewReader(p)
	if r.U32() != wire.FrameMagic {
		return nil, false
	}
	switch shape {
	case ShapePlan, ShapeOneShot:
		hdr = r.Raw()
		req.Src = r.F64s()
		req.Trg = r.F64s()
	case ShapeChunk:
		req.Offset = r.U64()
	}
	if shape != ShapePlan {
		req.Vectors = getVectors(r, shape)
	}
	return hdr, r.Err() == nil && r.Remaining() == 0 && (shape == ShapePlan || req.Vectors != nil)
}

// frameResponse assembles a response frame from the marshaled JSON meta
// (plan_id, stats, trace) and the potentials.
func frameResponse(shape Shape, meta []byte, pots [][]float64) []byte {
	var w wire.Writer
	w.Grow(8 + len(meta) + vectorsBytes(pots))
	w.U32(wire.FrameMagic)
	w.Raw(meta)
	putVectors(&w, shape, pots)
	return w.Bytes()
}

// parseResponseFrame is the inverse of frameResponse.
func parseResponseFrame(shape Shape, p []byte) (meta []byte, pots [][]float64, ok bool) {
	r := wire.NewReader(p)
	if r.U32() != wire.FrameMagic {
		return
	}
	meta = r.Raw()
	pots = getVectors(r, shape)
	return meta, pots, r.Err() == nil && r.Remaining() == 0 && pots != nil
}

// EncodeRequest is the client half of the request codec: the body of req
// in the layout of shape and the Content-Type to send it under.
func EncodeRequest(frame bool, shape Shape, req Request) ([]byte, string, error) {
	if frame {
		var hdr []byte
		if shape == ShapePlan || shape == ShapeOneShot {
			var err error
			if hdr, err = json.Marshal(req.jsonBody(shape, true)); err != nil {
				return nil, "", err
			}
		}
		return frameRequest(shape, hdr, &req), ContentTypeFrame, nil
	}
	if shape == ShapeChunk {
		return nil, "", badRequest("%s bodies must be %s", shape, ContentTypeFrame)
	}
	body, err := json.Marshal(req.jsonBody(shape, false))
	return body, contentTypeJSON, err
}

// jsonBody is req as the JSON layout of shape; header drops the bulk
// arrays, which a frame carries as words after it.
func (req Request) jsonBody(shape Shape, header bool) any {
	plan, vs := req.PlanRequest, req.Vectors
	if header {
		plan.Src, plan.Trg, vs = nil, nil, nil
	}
	switch shape {
	case ShapePlan:
		return plan
	case ShapeOneShot:
		return OneShotRequest{PlanRequest: plan, Densities: sole(vs)}
	case ShapeBatch:
		return EvaluateBatchRequest{Densities: vs}
	}
	return EvaluateRequest{Densities: sole(vs)}
}

// decodeRequest is the server half of the request codec. body is read to
// its end: a JSON body streams through the decoder, a frame is parsed in
// place. Errors are typed for the wire (invalid_input, plan_too_large).
func decodeRequest(frame bool, shape Shape, body io.Reader) (Request, error) {
	var req Request
	if !frame {
		var err error
		switch shape {
		case ShapePlan:
			err = readJSON(body, &req.PlanRequest)
		case ShapeOneShot:
			var one OneShotRequest
			err = readJSON(body, &one)
			req.PlanRequest, req.Vectors = one.PlanRequest, [][]float64{one.Densities}
		case ShapeBatch:
			var batch EvaluateBatchRequest
			err = readJSON(body, &batch)
			req.Vectors = batch.Densities
		case ShapeVector:
			var one EvaluateRequest
			err = readJSON(body, &one)
			req.Vectors = [][]float64{one.Densities}
		default:
			err = badRequest("%s bodies must be %s", shape, ContentTypeFrame)
		}
		return req, err
	}
	p, err := io.ReadAll(body)
	if err != nil {
		return req, bodyError("reading", err)
	}
	hdr, ok := parseRequestFrame(shape, p, &req)
	if !ok {
		return req, badRequest("%s: malformed %s body: %v", shape, ContentTypeFrame, wire.ErrMalformed)
	}
	// The header of a one-shot frame is its plan header: the densities
	// member rides along as null. The header's own src and trg (null as
	// the client writes them) give way to the words that followed it.
	if hdr != nil {
		src, trg := req.Src, req.Trg
		if err := json.Unmarshal(hdr, &req.PlanRequest); err != nil {
			return req, badRequest("decoding %s frame header: %s", shape, err)
		}
		req.Src, req.Trg = src, trg
	}
	return req, nil
}

// readJSON decodes a request body that must be exactly one JSON value:
// trailing bytes — a second value, or garbage like `{...}x` — are a
// malformed request, not ignorable padding (silently accepting them
// masks client bugs such as concatenated or truncated-and-resumed
// bodies).
func readJSON(body io.Reader, v any) error {
	dec := json.NewDecoder(body)
	if err := dec.Decode(v); err != nil {
		return bodyError("decoding", err)
	}
	if _, err := dec.Token(); err != io.EOF {
		return badRequest("request body has trailing data after the JSON value")
	}
	return nil
}

// bodyError types a failure to read or decode a request body: exceeding
// the server's body bound is plan_too_large, anything else the client's
// malformed input.
func bodyError(doing string, err error) error {
	var tooLargeErr *http.MaxBytesError
	if errors.As(err, &tooLargeErr) {
		return tooLarge("request body exceeds %d bytes", tooLargeErr.Limit)
	}
	return badRequest("%s body: %s", doing, err)
}

// encodeResponse is the server half of the response codec: the body of
// resp in the layout of shape and its Content-Type. JSON cannot carry a
// non-finite potential; rather than an opaque failed marshal the client
// learns which output overflowed and how to receive it anyway.
func encodeResponse(frame bool, shape Shape, resp EvaluateBatchResponse) ([]byte, string, error) {
	if frame {
		pots := resp.Potentials
		resp.Potentials = nil
		meta, err := json.Marshal(resp)
		if err != nil {
			return nil, "", errs.Newf(errs.CodeInternal, "service: encoding response meta: %s", err)
		}
		return frameResponse(shape, meta, pots), ContentTypeFrame, nil
	}
	for q, pot := range resp.Potentials {
		if i := nonFiniteIndex(pot); i >= 0 {
			return nil, "", errNonFinite(shape, q, i, pot[i])
		}
	}
	var v any = resp
	if shape != ShapeBatch {
		v = EvaluateResponse{PlanID: resp.PlanID, Potentials: sole(resp.Potentials), Stats: resp.Stats, Trace: resp.Trace}
	}
	// Encode, not Marshal: it ends the body with the newline every JSON
	// response carries without copying the potentials a second time.
	var body bytes.Buffer
	if err := json.NewEncoder(&body).Encode(v); err != nil {
		return nil, "", errs.Newf(errs.CodeInternal, "service: encoding response: %s", err)
	}
	return body.Bytes(), contentTypeJSON + "; charset=utf-8", nil
}

// errNonFinite is the typed refusal to put potential i of vector q on the
// JSON wire (the index formatting lives here, off the scan loop).
func errNonFinite(shape Shape, q, i int, v float64) error {
	at := fmt.Sprintf("potentials[%d]", i)
	if shape == ShapeBatch {
		at = fmt.Sprintf("potentials[%d][%d]", q, i)
	}
	return badRequest("%s is %v, which JSON cannot represent; overflowing densities usually mean bad input, but the value itself is retrievable bit-exactly with Accept: %s",
		at, v, ContentTypeFrame)
}

// nonFiniteIndex returns the index of the first NaN or infinite value
// in v, or -1 when every value is finite (and so JSON-representable).
func nonFiniteIndex(v []float64) int {
	for i, x := range v {
		if math.IsNaN(x) || math.IsInf(x, 0) {
			return i
		}
	}
	return -1
}

// DecodeResponse is the client half of the response codec: a response of
// the route of shape, in whichever encoding the server chose. A frame
// that does not parse is wire.ErrMalformed.
func DecodeResponse(frame bool, shape Shape, body io.Reader) (EvaluateBatchResponse, error) {
	var resp EvaluateBatchResponse
	if !frame {
		if shape == ShapeBatch {
			return resp, json.NewDecoder(body).Decode(&resp)
		}
		var one EvaluateResponse
		err := json.NewDecoder(body).Decode(&one)
		return EvaluateBatchResponse{PlanID: one.PlanID, Potentials: [][]float64{one.Potentials}, Stats: one.Stats, Trace: one.Trace}, err
	}
	p, err := io.ReadAll(io.LimitReader(body, wire.MaxFrameBytes))
	if err != nil {
		return resp, err
	}
	meta, pots, ok := parseResponseFrame(shape, p)
	if !ok {
		return resp, wire.ErrMalformed
	}
	err = json.Unmarshal(meta, &resp)
	resp.Potentials = pots
	return resp, err
}
