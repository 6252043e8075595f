package service

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"net/http/pprof"
	"strconv"
	"sync/atomic"
	"time"

	"repro/internal/errs"
	"repro/internal/obs"
)

// maxBodyBytes bounds request bodies (geometry and densities are flat
// float arrays; 256 MiB admits tens of millions of points).
const maxBodyBytes = 256 << 20

// StatusClientClosedRequest is the non-standard status (nginx's 499)
// reported when the client's disconnect cancelled the work server-side;
// the client that caused it rarely sees it, but proxies and access logs
// do.
const StatusClientClosedRequest = 499

// Server exposes a Service over HTTP:
//
//	POST /v1/plans                     register geometry       -> PlanInfo
//	POST /v1/plans/{id}/evaluate       densities->potentials   -> EvaluateResponse
//	POST /v1/plans/{id}/evaluate_batch many densities, 1 sweep -> EvaluateBatchResponse
//	POST /v1/evaluate                  one-shot plan+eval      -> EvaluateResponse
//	POST /v1/uploads                   create chunked upload   -> UploadStatus
//	POST /v1/uploads/{id}              append binary chunk     -> UploadStatus
//	GET  /v1/uploads/{id}              upload progress         -> UploadStatus
//	GET  /v1/evals/recent              recent eval span trees  -> RecentEvalsResponse
//	GET  /healthz                      liveness                -> HealthResponse
//	GET  /metrics                      Prometheus text exposition
//
// The evaluation endpoints accept ?trace=1 to echo the request's span
// tree (wall-clock per pass and tree level) in the response.
//
// Bulk bodies are content-negotiated (see codec.go): a request with
// Content-Type application/x-kifmm-frame ships coordinates/densities
// as raw little-endian float64 words, and Accept:
// application/x-kifmm-frame selects the same encoding for response
// potentials; JSON remains the default in both directions, and errors
// are always JSON. The evaluation POSTs additionally honor an
// Idempotency-Key header (see idem.go): duplicates of a keyed request
// replay the stored response instead of re-running the evaluation.
//
// Every request runs under r.Context() plus the configured per-request
// deadline (WithEvalTimeout / kifmm-serve's -eval-timeout): a client
// disconnect or deadline cancels the in-flight plan build or engine
// sweep within one FMM pass.
//
// Errors are the kifmm taxonomy on the wire: the JSON envelope is
// {"error": <message>, "code": <machine-readable code>}, with codes
// mapped onto statuses as
//
//	invalid_input     -> 400    plan_not_found    -> 404
//	unknown_kernel    -> 400    plan_too_large    -> 413
//	canceled          -> 499    deadline_exceeded -> 504
//	internal          -> 500
//
// so the Go client can rebuild the typed error (errors.Is against
// kifmm.ErrCanceled etc. holds across the round trip).
type Server struct {
	svc   *Service
	mux   *http.ServeMux
	start time.Time
	// evalTimeout bounds each request's work (0 = none); it layers onto
	// r.Context(), so whichever of disconnect and deadline comes first
	// cancels the work.
	evalTimeout time.Duration
	// log receives one structured line per request (nil = silent).
	log *slog.Logger
	// slowThreshold promotes requests at least this slow to a warning
	// log line (0 = never).
	slowThreshold time.Duration
	pprof         bool
	reqSeq        atomic.Int64
	// idem deduplicates Idempotency-Key'd evaluation POSTs.
	idem *idemStore
}

// ServerOption customizes a Server.
type ServerOption func(*Server)

// WithEvalTimeout sets the per-request deadline applied to every
// API request's context (0 disables). Requests that exceed it fail
// with 504 / deadline_exceeded, and the underlying evaluation stops
// within one FMM pass.
func WithEvalTimeout(d time.Duration) ServerOption {
	return func(s *Server) { s.evalTimeout = d }
}

// WithLogger makes the server emit one structured slog line per request
// (route, method, status, duration, request id). Nil disables logging
// (the default).
func WithLogger(l *slog.Logger) ServerOption {
	return func(s *Server) { s.log = l }
}

// WithSlowEvalThreshold logs requests taking at least d at warning
// level, marked slow=true, so slow evaluations stand out of the request
// stream (0 disables; requires WithLogger).
func WithSlowEvalThreshold(d time.Duration) ServerOption {
	return func(s *Server) { s.slowThreshold = d }
}

// WithPprof mounts net/http/pprof under /debug/pprof/ (kifmm-serve's
// -pprof flag). Off by default: profiling endpoints expose stacks and
// heap contents, so they are opt-in.
func WithPprof() ServerOption {
	return func(s *Server) { s.pprof = true }
}

// NewServer wraps svc in an HTTP handler.
func NewServer(svc *Service, opts ...ServerOption) *Server {
	s := &Server{svc: svc, mux: http.NewServeMux(), start: time.Now(), idem: newIdemStore()}
	for _, o := range opts {
		o(s)
	}
	s.handle("POST /v1/plans", s.handleRegister)
	s.handle("POST /v1/plans/{id}/evaluate", s.idempotent(s.handleEvaluate(ShapeVector)))
	s.handle("POST /v1/plans/{id}/evaluate_batch", s.idempotent(s.handleEvaluate(ShapeBatch)))
	s.handle("POST /v1/evaluate", s.idempotent(s.handleEvaluate(ShapeOneShot)))
	s.handle("POST /v1/uploads", s.handleUploadCreate)
	s.handle("POST /v1/uploads/{id}", s.handleUploadChunk)
	s.handle("GET /v1/uploads/{id}", s.handleUploadStatus)
	s.handle("GET /v1/evals/recent", s.handleRecentEvals)
	s.handle("GET /healthz", s.handleHealth)
	s.handle("GET /metrics", s.handleMetrics)
	if s.pprof {
		// pprof handlers do their own sub-routing on the path suffix;
		// mount them unwrapped so profile endpoints don't skew the API
		// request metrics.
		s.mux.HandleFunc("GET /debug/pprof/", pprof.Index)
		s.mux.HandleFunc("GET /debug/pprof/cmdline", pprof.Cmdline)
		s.mux.HandleFunc("GET /debug/pprof/profile", pprof.Profile)
		s.mux.HandleFunc("GET /debug/pprof/symbol", pprof.Symbol)
		s.mux.HandleFunc("GET /debug/pprof/trace", pprof.Trace)
	}
	return s
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// statusWriter captures the response status and body size for metrics
// and logs.
type statusWriter struct {
	http.ResponseWriter
	status int
	bytes  int64
}

func (w *statusWriter) WriteHeader(status int) {
	if w.status == 0 {
		w.status = status
	}
	w.ResponseWriter.WriteHeader(status)
}

func (w *statusWriter) Write(b []byte) (int, error) {
	if w.status == 0 {
		w.status = http.StatusOK
	}
	n, err := w.ResponseWriter.Write(b)
	w.bytes += int64(n)
	return n, err
}

// countingReader counts request-body bytes as the handler consumes
// them (so kifmm_http_request_bytes_total reflects bytes actually
// read, whatever the client's Content-Length claimed).
type countingReader struct {
	rc io.ReadCloser
	n  int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.rc.Read(p)
	c.n += int64(n)
	return n, err
}

func (c *countingReader) Close() error { return c.rc.Close() }

// handle registers a route wrapped in the observability middleware:
// per-route request counters and duration histograms, plus an optional
// structured log line carrying a request id. The route label is the
// registered pattern, so metrics cardinality is bounded by the route
// table, not by client-supplied paths.
func (s *Server) handle(pattern string, h http.HandlerFunc) {
	s.mux.HandleFunc(pattern, func(w http.ResponseWriter, r *http.Request) {
		start := time.Now()
		reqID := r.Header.Get("X-Request-Id")
		if reqID == "" {
			reqID = "r" + strconv.FormatInt(s.start.UnixNano()%1e9, 36) + "-" + strconv.FormatInt(s.reqSeq.Add(1), 10)
		}
		w.Header().Set("X-Request-Id", reqID)
		// W3C trace context: adopt the caller's trace id as this request's,
		// recording the caller's span id as the parent; a missing or
		// malformed traceparent starts a fresh trace (never an error). The
		// response echoes the trace with the server's span id, so callers
		// can stitch their spans to ours.
		parentSpan := ""
		tc, tcErr := obs.ParseTraceparent(r.Header.Get("traceparent"))
		if tcErr == nil {
			parentSpan = tc.SpanID
			tc.SpanID = obs.NewSpanID()
		} else {
			tc = obs.NewTraceContext()
		}
		w.Header().Set("Traceparent", tc.Traceparent())
		ctx := obs.ContextWithTrace(r.Context(), tc)
		ctx = contextWithRequestMeta(ctx, requestMeta{id: reqID, parentSpan: parentSpan})
		r = r.WithContext(ctx)
		cr := &countingReader{rc: r.Body}
		r.Body = cr
		sw := &statusWriter{ResponseWriter: w}
		h(sw, r)
		if sw.status == 0 {
			sw.status = http.StatusOK
		}
		dur := time.Since(start)
		m := s.svc.m
		m.httpRequests.With(pattern, strconv.Itoa(sw.status)).Inc()
		m.httpRequestSeconds.With(pattern).Observe(dur.Seconds())
		m.httpRequestBytes.Add(cr.n)
		m.httpResponseBytes.Add(sw.bytes)
		slow := s.slowThreshold > 0 && dur >= s.slowThreshold
		if slow {
			m.evalSlow.Inc()
		}
		if s.log != nil {
			attrs := []any{
				"method", r.Method, "route", pattern, "status", sw.status,
				"duration_ms", float64(dur.Microseconds()) / 1e3, "request_id", reqID,
				"trace_id", tc.TraceID,
			}
			if slow {
				s.log.Warn("slow request", append(attrs, "slow", true)...)
			} else {
				s.log.Info("request", attrs...)
			}
		}
	})
}

// requestContext derives the work context for one API request:
// r.Context() (cancelled when the client disconnects) bounded by the
// configured per-request deadline.
func (s *Server) requestContext(r *http.Request) (context.Context, context.CancelFunc) {
	ctx := r.Context()
	if s.evalTimeout > 0 {
		return context.WithTimeout(ctx, s.evalTimeout)
	}
	return context.WithCancel(ctx)
}

// errorResponse is the JSON error envelope: a human-readable message
// plus the machine-readable taxonomy code.
type errorResponse struct {
	Error string `json:"error"`
	Code  string `json:"code,omitempty"`
}

// writeBody sends an encoded body.
func writeBody(w http.ResponseWriter, status int, contentType string, body []byte) {
	w.Header().Set("Content-Type", contentType)
	w.WriteHeader(status)
	_, _ = w.Write(body)
}

// writeJSON marshals before writing the header, so a value JSON cannot
// represent surfaces as a 500 instead of a 200 with an empty body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	raw, err := json.Marshal(v)
	if err != nil {
		raw, _ = json.Marshal(errorResponse{
			Error: fmt.Sprintf("service: encoding response: %s", err),
			Code:  string(errs.CodeInternal),
		})
		status = http.StatusInternalServerError
	}
	writeBody(w, status, contentTypeJSON+"; charset=utf-8", append(raw, '\n'))
}

// statusOf maps an error chain onto (HTTP status, wire code). Typed
// errors map by code; bare context errors (belt and braces — the
// service normally types them) map to 499/504; everything else is a
// 500 internal.
func statusOf(err error) (int, errs.Code) {
	if code, ok := errs.CodeOf(err); ok {
		switch code {
		case errs.CodeInvalidInput, errs.CodeUnknownKernel:
			return http.StatusBadRequest, code
		case errs.CodePlanNotFound:
			return http.StatusNotFound, code
		case errs.CodePlanTooLarge:
			return http.StatusRequestEntityTooLarge, code
		case errs.CodeCanceled:
			return StatusClientClosedRequest, code
		case errs.CodeDeadlineExceeded:
			return http.StatusGatewayTimeout, code
		case errs.CodeInternal:
			return http.StatusInternalServerError, code
		case errs.CodeWorkerLost:
			return http.StatusServiceUnavailable, code
		}
	}
	switch {
	case errors.Is(err, context.Canceled):
		return StatusClientClosedRequest, errs.CodeCanceled
	case errors.Is(err, context.DeadlineExceeded):
		return http.StatusGatewayTimeout, errs.CodeDeadlineExceeded
	}
	return http.StatusInternalServerError, errs.CodeInternal
}

func writeError(w http.ResponseWriter, err error) {
	status, code := statusOf(err)
	writeJSON(w, status, errorResponse{Error: err.Error(), Code: string(code)})
}

// negotiated counts one bulk body in kifmm_wire_encoding_total — the
// only place that does — and hands its encoding back.
func (s *Server) negotiated(frame bool) bool {
	s.svc.m.wireEncoding.With(encodingOf(frame)).Inc()
	return frame
}

// readRequest decodes the body of a bulk route, in whichever encoding its
// Content-Type names, under the standard size bound. On failure it has
// answered the request.
func (s *Server) readRequest(w http.ResponseWriter, r *http.Request, shape Shape) (Request, bool) {
	req, err := decodeRequest(s.negotiated(isFrameRequest(r)), shape, http.MaxBytesReader(w, r.Body, maxBodyBytes))
	if err != nil {
		writeError(w, err)
		return Request{}, false
	}
	return req, true
}

func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	req, ok := s.readRequest(w, r, ShapePlan)
	if !ok {
		return
	}
	ctx, cancel := s.requestContext(r)
	defer cancel()
	info, err := s.svc.Register(ctx, req.PlanRequest)
	if err != nil {
		writeError(w, err)
		return
	}
	status := http.StatusCreated
	if info.Cached {
		status = http.StatusOK
	}
	writeJSON(w, status, info)
}

// wantTrace reports whether the request asked for its span tree
// (?trace=1 or any other truthy strconv.ParseBool spelling).
func wantTrace(r *http.Request) bool {
	t, err := strconv.ParseBool(r.URL.Query().Get("trace"))
	return err == nil && t
}

// handleEvaluate is the body of all three evaluation routes: decode the
// request in its encoding and the route's shape, run it, encode the
// result in the encoding the client accepts.
func (s *Server) handleEvaluate(shape Shape) http.HandlerFunc {
	return func(w http.ResponseWriter, r *http.Request) {
		req, ok := s.readRequest(w, r, shape)
		if !ok {
			return
		}
		ctx, cancel := s.requestContext(r)
		defer cancel()
		var res EvaluateBatchResponse
		var err error
		if shape == ShapeOneShot {
			res, err = s.svc.EvaluateOnce(ctx, OneShotRequest{PlanRequest: req.PlanRequest, Densities: sole(req.Vectors)})
		} else {
			res, err = s.svc.Evaluate(ctx, r.PathValue("id"), req.Vectors)
		}
		if err != nil {
			writeError(w, err)
			return
		}
		if !wantTrace(r) {
			res.Trace = nil
		}
		body, contentType, err := encodeResponse(s.negotiated(wantsFrameResponse(r)), shape, res)
		if err != nil {
			writeError(w, err)
			return
		}
		writeBody(w, http.StatusOK, contentType, body)
	}
}

// handleRecentEvals serves the span trees of recent evaluations, newest
// first; ?n= bounds how many (default: all retained in the ring) and
// ?trace_id= keeps only evaluations belonging to that W3C trace.
func (s *Server) handleRecentEvals(w http.ResponseWriter, r *http.Request) {
	n := 0
	if q := r.URL.Query().Get("n"); q != "" {
		v, err := strconv.Atoi(q)
		if err != nil || v < 0 {
			writeError(w, badRequest("n must be a non-negative integer, got %q", q))
			return
		}
		n = v
	}
	var traces []*TraceSpan
	if traceID := r.URL.Query().Get("trace_id"); traceID != "" {
		for _, sp := range s.svc.RecentSpans(0) {
			if sp.Attrs["trace_id"] == traceID {
				traces = append(traces, sp)
			}
			if n > 0 && len(traces) == n {
				break
			}
		}
	} else {
		traces = s.svc.RecentSpans(n)
	}
	if traces == nil {
		traces = []*TraceSpan{}
	}
	writeJSON(w, http.StatusOK, RecentEvalsResponse{
		Total:  s.svc.spans.Total(),
		Traces: traces,
	})
}

// handleMetrics renders every registered instrument in Prometheus text
// exposition format (version 0.0.4) — the scrape endpoint.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
	s.svc.MetricsRegistry().WritePrometheus(w)
}

func (s *Server) handleHealth(w http.ResponseWriter, r *http.Request) {
	writeJSON(w, http.StatusOK, HealthResponse{
		Status:        "ok",
		Plans:         s.svc.Plans(),
		UptimeSeconds: time.Since(s.start).Seconds(),
	})
}
