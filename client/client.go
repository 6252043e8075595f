// Package client is a thin Go client for the kifmm evaluation service
// (cmd/kifmm-serve): register a geometry once, then stream density
// vectors against the cached plan.
//
//	c := client.New("http://localhost:8080")
//	plan, _ := c.RegisterPlan(ctx, client.PlanRequest{
//		Src:    points,
//		Kernel: client.KernelSpec{Name: "laplace"},
//	})
//	pot, _, _ := c.Evaluate(ctx, plan.ID, densities)
//
// Every method takes a context.Context, and the context reaches all the
// way into the server's FMM sweep: cancelling it (or its deadline
// passing) aborts the server-side evaluation within one pass, not just
// the local wait.
//
// Errors carry the kifmm taxonomy across the wire. A non-2xx response
// is returned as *APIError whose chain includes the typed kifmm error
// reconstructed from the server's machine-readable code, and transport
// cancellations are typed the same way — so
//
//	errors.Is(err, kifmm.ErrCanceled)        // and context.Canceled
//	errors.Is(err, kifmm.ErrPlanNotFound)
//	errors.Is(err, kifmm.ErrDeadlineExceeded) // and context.DeadlineExceeded
//
// hold identically whether the failure happened locally, in transit or
// on the server.
//
// Bulk arrays can cross the wire in the server's binary frame encoding
// (application/x-kifmm-frame) instead of JSON. Responses negotiate
// transparently: every evaluation request advertises the frame
// encoding in Accept, new servers answer with raw little-endian
// float64 words (bit-exact, including NaN payloads and infinities) and
// old servers keep answering JSON — callers never see the difference.
// Request bodies switch to frames with WithBinary. Geometries too
// large for one request stream through the chunked upload endpoints
// via UploadArray / RegisterPlanChunked.
//
// With WithRetry configured, evaluation POSTs carry a random
// Idempotency-Key header the server deduplicates, so a retried request
// whose first attempt actually ran replays the stored response instead
// of computing (and possibly double-counting) a second sweep.
package client

import (
	"bytes"
	"context"
	"crypto/rand"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/url"

	kifmm "repro"
	"repro/internal/errs"
	"repro/internal/obs"
	"repro/internal/service"
)

// Wire types, shared with the server.
type (
	// PlanRequest describes the geometry, kernel and options of a plan.
	PlanRequest = service.PlanRequest
	// KernelSpec names a kernel and its parameters.
	KernelSpec = service.KernelSpec
	// PlanInfo reports a registered plan.
	PlanInfo = service.PlanInfo
	// EvalStats is the per-stage timing breakdown of one evaluation.
	EvalStats = service.EvalStats
	// HealthResponse mirrors GET /healthz.
	HealthResponse = service.HealthResponse
	// TraceSpan is one node of an evaluation's span tree.
	TraceSpan = service.TraceSpan
	// RecentEvalsResponse mirrors GET /v1/evals/recent.
	RecentEvalsResponse = service.RecentEvalsResponse
	// UploadStatus reports a chunked upload's committed prefix.
	UploadStatus = service.UploadStatus
)

// APIError is a non-2xx server response: the status, the server's
// human-readable message and the machine-readable kifmm error code from
// the wire envelope. Its Unwrap exposes the reconstructed typed error,
// so errors.Is(err, kifmm.ErrPlanNotFound) and friends work without
// touching APIError directly.
type APIError struct {
	StatusCode int
	// Code is the machine-readable kifmm error code from the wire
	// envelope (kifmm.ErrorCode, e.g. kifmm.CodePlanNotFound).
	Code    kifmm.ErrorCode
	Message string

	// typed is the reconstructed taxonomy error (nil when the server
	// sent no recognizable code and the status maps to none).
	typed *errs.Error
}

// newAPIError reconstructs the typed error from the wire code, falling
// back on the HTTP status for old or non-kifmm servers that send no
// code.
func newAPIError(status int, code kifmm.ErrorCode, message string) *APIError {
	if code == "" {
		switch status {
		case http.StatusBadRequest:
			code = errs.CodeInvalidInput
		case http.StatusNotFound:
			code = errs.CodePlanNotFound
		case http.StatusRequestEntityTooLarge:
			code = errs.CodePlanTooLarge
		case service.StatusClientClosedRequest:
			code = errs.CodeCanceled
		case http.StatusGatewayTimeout:
			code = errs.CodeDeadlineExceeded
		case http.StatusInternalServerError:
			code = errs.CodeInternal
		case http.StatusServiceUnavailable:
			code = errs.CodeWorkerLost
		}
	}
	return &APIError{
		StatusCode: status,
		Code:       code,
		Message:    message,
		typed:      errs.FromCode(code, message),
	}
}

// Error implements error.
func (e *APIError) Error() string {
	return fmt.Sprintf("client: server returned %d: %s", e.StatusCode, e.Message)
}

// Unwrap exposes the typed kifmm error to errors.Is/As.
func (e *APIError) Unwrap() error {
	if e.typed == nil {
		return nil
	}
	return e.typed
}

// Client talks to one kifmm-serve instance. It is safe for concurrent
// use.
type Client struct {
	base       string
	hc         *http.Client
	retry      *RetryPolicy
	binary     bool
	chunkWords int
}

// Option customizes a Client.
type Option func(*Client)

// WithHTTPClient substitutes the underlying http.Client (timeouts,
// transport limits, test doubles).
func WithHTTPClient(hc *http.Client) Option {
	return func(c *Client) { c.hc = hc }
}

// WithBinary makes plan registrations and evaluations send their
// request bodies in the binary frame encoding instead of JSON: no
// float-to-decimal round trip on bulk arrays, every bit pattern
// preserved. Requires a server new enough to understand
// application/x-kifmm-frame (older ones answer 400). Responses
// negotiate independently of this option and need no opt-in.
func WithBinary() Option {
	return func(c *Client) { c.binary = true }
}

// WithChunkWords sets how many float64 words UploadArray ships per
// chunk (default 1<<20 words, 8 MiB).
func WithChunkWords(n int) Option {
	return func(c *Client) { c.chunkWords = n }
}

// New returns a client for the server at base (e.g.
// "http://localhost:8080"); a trailing slash is tolerated.
func New(base string, opts ...Option) *Client {
	c := &Client{base: trimSlash(base), hc: http.DefaultClient}
	for _, o := range opts {
		o(c)
	}
	return c
}

func trimSlash(s string) string {
	for len(s) > 0 && s[len(s)-1] == '/' {
		s = s[:len(s)-1]
	}
	return s
}

// RegisterPlan registers (or resolves, if cached server-side) a plan.
// Registrations are content-addressed and therefore naturally
// idempotent, so under a retry policy they retry without needing an
// idempotency key.
func (c *Client) RegisterPlan(ctx context.Context, req PlanRequest) (PlanInfo, error) {
	var info PlanInfo
	body, ct, err := c.encode(service.ShapePlan, service.Request{PlanRequest: req})
	if err != nil {
		return info, err
	}
	err = c.withRetry(ctx, func(ctx context.Context) error {
		return c.postRaw(ctx, "/v1/plans", body, ct, &info)
	})
	return info, err
}

// Evaluate computes potentials for den against a registered plan.
func (c *Client) Evaluate(ctx context.Context, planID string, den []float64) ([]float64, EvalStats, error) {
	resp, err := c.evaluate(ctx, service.ShapeVector, planPath(planID, "evaluate"), service.Request{Vectors: [][]float64{den}})
	return sole(resp), resp.Stats, err
}

// EvaluateBatch computes potentials for many density vectors in one
// request and one server-side engine sweep; the server amortizes tree
// traversal and near-field kernel evaluations across the batch, so this
// is the fast path for multi-RHS workloads (e.g. lockstep Krylov
// solves).
func (c *Client) EvaluateBatch(ctx context.Context, planID string, dens [][]float64) ([][]float64, EvalStats, error) {
	resp, err := c.evaluate(ctx, service.ShapeBatch, planPath(planID, "evaluate_batch"), service.Request{Vectors: dens})
	return resp.Potentials, resp.Stats, err
}

// EvaluateTraced is Evaluate plus the server-side span tree of the
// sweep (?trace=1): wall-clock spans for the permute, upward, downward
// (with per-level children) and leaf phases, with rhs/granted-lane
// attributes. Use it to see where a slow evaluation spent its time
// without shell access to the server.
func (c *Client) EvaluateTraced(ctx context.Context, planID string, den []float64) ([]float64, EvalStats, *TraceSpan, error) {
	resp, err := c.evaluate(ctx, service.ShapeVector, planPath(planID, "evaluate?trace=1"), service.Request{Vectors: [][]float64{den}})
	return sole(resp), resp.Stats, resp.Trace, err
}

// EvaluateBatchTraced is EvaluateBatch plus the sweep's span tree.
func (c *Client) EvaluateBatchTraced(ctx context.Context, planID string, dens [][]float64) ([][]float64, EvalStats, *TraceSpan, error) {
	resp, err := c.evaluate(ctx, service.ShapeBatch, planPath(planID, "evaluate_batch?trace=1"), service.Request{Vectors: dens})
	return resp.Potentials, resp.Stats, resp.Trace, err
}

// EvaluateOnce registers the plan and evaluates in one round trip; the
// plan stays cached server-side. It returns the plan id for follow-up
// Evaluate calls.
func (c *Client) EvaluateOnce(ctx context.Context, req PlanRequest, den []float64) (string, []float64, EvalStats, error) {
	resp, err := c.evaluate(ctx, service.ShapeOneShot, "/v1/evaluate", service.Request{PlanRequest: req, Vectors: [][]float64{den}})
	return resp.PlanID, sole(resp), resp.Stats, err
}

// planPath is the route of a registered plan's evaluation endpoint.
func planPath(planID, endpoint string) string {
	return "/v1/plans/" + url.PathEscape(planID) + "/" + endpoint
}

// sole returns the one potential vector of a single-vector response (nil
// on the zero response of a failed call).
func sole(resp service.EvaluateBatchResponse) []float64 {
	if len(resp.Potentials) == 0 {
		return nil
	}
	return resp.Potentials[0]
}

// encode assembles a request body in the configured request encoding
// (plain JSON, or a frame carrying the bulk arrays as raw words) and
// returns it with its Content-Type.
func (c *Client) encode(shape service.Shape, req service.Request) ([]byte, string, error) {
	body, ct, err := service.EncodeRequest(c.binary, shape, req)
	if err != nil {
		return nil, "", fmt.Errorf("client: encoding request: %w", err)
	}
	return body, ct, nil
}

// evaluate runs one evaluation POST of the route of shape and decodes the
// response in whichever encoding the server chose: every request
// advertises the frame encoding, new servers answer with it and old ones
// keep answering JSON — callers always receive the same model. Under a
// retry policy the attempts share one Idempotency-Key, so a retry whose
// predecessor actually ran replays the stored result instead of
// re-evaluating.
func (c *Client) evaluate(ctx context.Context, shape service.Shape, path string, req service.Request) (service.EvaluateBatchResponse, error) {
	var resp service.EvaluateBatchResponse
	body, ct, err := c.encode(shape, req)
	if err != nil {
		return resp, err
	}
	key := ""
	if c.retry != nil {
		key = newIdempotencyKey()
	}
	err = c.withRetry(ctx, func(ctx context.Context) error {
		hreq, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
		if err != nil {
			return err
		}
		hreq.Header.Set("Content-Type", ct)
		hreq.Header.Set("Accept", service.ContentTypeFrame+", application/json")
		hreq.Header.Set("Traceparent", traceparent(ctx))
		if key != "" {
			hreq.Header.Set("Idempotency-Key", key)
		}
		return c.doDecode(hreq, func(r *http.Response) (err error) {
			resp, err = service.DecodeResponse(service.IsFrame(r.Header.Get("Content-Type")), shape, r.Body)
			return err
		})
	})
	if err != nil {
		return service.EvaluateBatchResponse{}, err
	}
	return resp, nil
}

// newIdempotencyKey returns a fresh random key, or "" if the system
// randomness source fails (the request then proceeds without
// deduplication rather than failing outright).
func newIdempotencyKey() string {
	var b [16]byte
	if _, err := rand.Read(b[:]); err != nil {
		return ""
	}
	return hex.EncodeToString(b[:])
}

// UploadArray streams data into a server-side chunked upload and
// returns the upload id to reference as src_upload/trg_upload in a
// plan registration. Chunks are bounded (WithChunkWords), individually
// timed out (RetryPolicy.PerAttemptTimeout), and on a retryable failure
// the transfer resumes from the server-reported committed prefix — a chunk
// whose response was lost in flight is never double-counted because
// appends are idempotent on the committed range.
func (c *Client) UploadArray(ctx context.Context, data []float64) (string, error) {
	var st UploadStatus
	if err := c.post(ctx, "/v1/uploads", service.UploadCreateRequest{Words: len(data)}, &st); err != nil {
		return "", err
	}
	chunkW := c.chunkWords
	if chunkW <= 0 {
		chunkW = defaultChunkWords
	}
	tries := 1
	if c.retry != nil {
		tries = c.retry.MaxAttempts
	}
	fails := 0
	for off := 0; off < len(data); {
		end := off + chunkW
		if end > len(data) {
			end = len(data)
		}
		next, err := c.uploadChunk(ctx, st.ID, off, data[off:end])
		if err == nil {
			fails, off = 0, next
			continue
		}
		fails++
		if fails >= tries || !retryable(err) || ctx.Err() != nil {
			return "", err
		}
		// The chunk may have landed even though its response did not
		// (a timeout mid-flight): resume from wherever the server says
		// the committed prefix ends.
		cur, gerr := c.GetUpload(ctx, st.ID)
		if gerr != nil {
			return "", err
		}
		off = cur.ReceivedWords
	}
	return st.ID, nil
}

// defaultChunkWords is UploadArray's chunk size: 1Mi float64 words,
// 8 MiB on the wire.
const defaultChunkWords = 1 << 20

// uploadChunk sends one chunk under the per-attempt timeout and returns
// the server's committed word count.
func (c *Client) uploadChunk(ctx context.Context, id string, off int, chunk []float64) (int, error) {
	ctx, cancel := c.attemptContext(ctx)
	defer cancel()
	var st UploadStatus
	body, ct, err := service.EncodeRequest(true, service.ShapeChunk, service.Request{Offset: uint64(off), Vectors: [][]float64{chunk}})
	if err == nil {
		err = c.postRaw(ctx, "/v1/uploads/"+url.PathEscape(id), body, ct, &st)
	}
	return st.ReceivedWords, err
}

// GetUpload reports an in-flight upload's committed prefix (the resume
// offset after a disconnect).
func (c *Client) GetUpload(ctx context.Context, id string) (UploadStatus, error) {
	var st UploadStatus
	err := c.get(ctx, "/v1/uploads/"+url.PathEscape(id), &st)
	return st, err
}

// RegisterPlanChunked is RegisterPlan for geometries too large (or too
// precious) to ship in one request body: the coordinate arrays stream
// through the chunked upload endpoints first, and the plan then
// registers referencing the uploads. The arrays cross as raw binary
// words regardless of WithBinary.
func (c *Client) RegisterPlanChunked(ctx context.Context, req PlanRequest) (PlanInfo, error) {
	if len(req.Src) > 0 {
		id, err := c.UploadArray(ctx, req.Src)
		if err != nil {
			return PlanInfo{}, err
		}
		req.Src, req.SrcUpload = nil, id
	}
	if len(req.Trg) > 0 {
		id, err := c.UploadArray(ctx, req.Trg)
		if err != nil {
			return PlanInfo{}, err
		}
		req.Trg, req.TrgUpload = nil, id
	}
	return c.RegisterPlan(ctx, req)
}

// Health checks the server's liveness endpoint.
func (c *Client) Health(ctx context.Context) (HealthResponse, error) {
	var h HealthResponse
	err := c.get(ctx, "/healthz", &h)
	return h, err
}

// RecentEvals fetches the span trees of the server's recent
// evaluations, newest first. n caps how many are returned (0 = all the
// server retains).
func (c *Client) RecentEvals(ctx context.Context, n int) (RecentEvalsResponse, error) {
	var resp RecentEvalsResponse
	path := "/v1/evals/recent"
	if n > 0 {
		path += "?n=" + url.QueryEscape(fmt.Sprint(n))
	}
	err := c.get(ctx, path, &resp)
	return resp, err
}

// RecentEvalsByTrace fetches only the evaluations that ran under the
// given W3C trace id (?trace_id= server-side filter), newest first; n
// caps how many (0 = all). Pair it with WithTraceparent to retrieve
// exactly the evaluations a distributed caller initiated.
func (c *Client) RecentEvalsByTrace(ctx context.Context, traceID string, n int) (RecentEvalsResponse, error) {
	var resp RecentEvalsResponse
	path := "/v1/evals/recent?trace_id=" + url.QueryEscape(traceID)
	if n > 0 {
		path += "&n=" + url.QueryEscape(fmt.Sprint(n))
	}
	err := c.get(ctx, path, &resp)
	return resp, err
}

// traceparentKey stashes an explicit traceparent header in a context.
type traceparentKey struct{}

// WithTraceparent returns a context that makes every request carry the
// given W3C traceparent header ("00-<trace-id>-<span-id>-<flags>"), so
// the server adopts the caller's trace id and records the caller's span
// as the evaluate span's parent. Without it the client generates a
// fresh trace context per request; an invalid header falls back the
// same way (the server would reject it anyway, never the request).
func WithTraceparent(ctx context.Context, header string) context.Context {
	return context.WithValue(ctx, traceparentKey{}, header)
}

// traceparent resolves the header to send: the context's explicit (and
// valid) traceparent, or a freshly generated trace context.
func traceparent(ctx context.Context) string {
	if h, ok := ctx.Value(traceparentKey{}).(string); ok {
		if _, err := obs.ParseTraceparent(h); err == nil {
			return h
		}
	}
	return obs.NewTraceContext().Traceparent()
}

// encodeJSON marshals a JSON request body alongside its content type.
func (c *Client) encodeJSON(v any) ([]byte, string, error) {
	raw, err := json.Marshal(v)
	if err != nil {
		return nil, "", fmt.Errorf("client: encoding request: %w", err)
	}
	return raw, "application/json", nil
}

func (c *Client) post(ctx context.Context, path string, body, out any) error {
	raw, ct, err := c.encodeJSON(body)
	if err != nil {
		return err
	}
	return c.postRaw(ctx, path, raw, ct, out)
}

// postRaw sends pre-encoded bytes as one POST.
func (c *Client) postRaw(ctx context.Context, path string, body []byte, contentType string, out any) error {
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, c.base+path, bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", contentType)
	req.Header.Set("Traceparent", traceparent(ctx))
	return c.do(req, out)
}

func (c *Client) get(ctx context.Context, path string, out any) error {
	return c.withRetry(ctx, func(ctx context.Context) error {
		req, err := http.NewRequestWithContext(ctx, http.MethodGet, c.base+path, nil)
		if err != nil {
			return err
		}
		req.Header.Set("Traceparent", traceparent(ctx))
		return c.do(req, out)
	})
}

func (c *Client) do(req *http.Request, out any) error {
	if out == nil {
		return c.doDecode(req, nil)
	}
	return c.doDecode(req, func(resp *http.Response) error {
		return json.NewDecoder(resp.Body).Decode(out)
	})
}

// doDecode runs one request, mapping transport failures and non-2xx
// statuses to typed errors, and hands a successful response to decode.
// A decode failure is returned as *decodeError — the server already
// answered, so the retry loop treats the mismatch as final.
func (c *Client) doDecode(req *http.Request, decode func(*http.Response) error) error {
	resp, err := c.hc.Do(req)
	if err != nil {
		// A local cancellation or deadline surfaces as the same typed
		// error a server-side one would, so callers branch one way.
		return errs.FromContext(err)
	}
	// Drain to EOF before closing so the keep-alive connection returns
	// to the pool instead of being discarded (json.Decoder stops at the
	// end of the top-level value, short of the terminal chunk).
	defer func() {
		_, _ = io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
		resp.Body.Close()
	}()
	if resp.StatusCode < 200 || resp.StatusCode > 299 {
		// Errors are always JSON, whatever encoding was negotiated.
		var envelope struct {
			Error string `json:"error"`
			Code  string `json:"code"`
		}
		msg, code := "", errs.Code("")
		if raw, err := io.ReadAll(io.LimitReader(resp.Body, 1<<20)); err == nil {
			if json.Unmarshal(raw, &envelope) == nil && envelope.Error != "" {
				msg, code = envelope.Error, errs.Code(envelope.Code)
			} else {
				msg = string(raw)
			}
		}
		return newAPIError(resp.StatusCode, code, msg)
	}
	if decode == nil {
		return nil
	}
	if err := decode(resp); err != nil {
		var dec *decodeError
		if errors.As(err, &dec) {
			return err
		}
		return &decodeError{err: err}
	}
	return nil
}
