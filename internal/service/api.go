// Package service is the serving layer over the kifmm library: a keyed
// cache of prepared Evaluators (plans) with singleflight construction, a
// bounded worker pool for concurrent evaluations, and an HTTP API.
//
// The paper's workloads amortize the expensive octree and
// translation-operator setup over "tens of interaction calculations";
// the plan cache extends that amortization across callers: every client
// registering the same (geometry, kernel, options) tuple shares one
// prepared plan, identified by a content hash (kifmm.PlanKey).
//
// An evaluation has one way in at each layer. Service.Evaluate takes a
// plan id and a batch of density vectors (a single vector is a batch of
// one), Service.EvaluateOnce a plan and one vector; both end in the same
// tail (finishEval), local or cluster. The three HTTP evaluation routes
// are one handler body (Server.handleEvaluate: decode, run, encode), and
// every body layout, JSON or binary frame, request or response, is in
// codec.go.
package service

import (
	kifmm "repro"
	"repro/internal/errs"
	"repro/internal/fmm"
	"repro/internal/kernels"
	"repro/internal/obs"
)

// TraceSpan is the wire form of one trace span: a named wall-clock
// interval with attributes and children ({"name", "start",
// "duration_ns", "attrs", "children"}). Evaluation responses carry one
// per request when ?trace=1 is set, and GET /v1/evals/recent returns
// the span trees of recent evaluations.
type TraceSpan = obs.Span

// KernelSpec names a kernel and its parameters (the wire form; see
// internal/kernels.Spec).
type KernelSpec = kernels.Spec

// PlanRequest describes an evaluation plan: the geometry, the kernel
// (by serializable spec) and the tree/operator options. It is the JSON
// body of POST /v1/plans.
type PlanRequest struct {
	// Src holds flat (x0,y0,z0,x1,...) source coordinates.
	Src []float64 `json:"src"`
	// Trg holds flat target coordinates; empty means "same as Src"
	// (the paper's usual setup).
	Trg []float64 `json:"trg,omitempty"`
	// SrcUpload optionally names a completed chunked upload (POST
	// /v1/uploads) to use as the source coordinates; mutually
	// exclusive with Src.
	SrcUpload string `json:"src_upload,omitempty"`
	// TrgUpload is SrcUpload for the targets; mutually exclusive with
	// Trg.
	TrgUpload string `json:"trg_upload,omitempty"`
	// Kernel names the interaction kernel and its parameters.
	Kernel kernels.Spec `json:"kernel"`
	// Degree is the equivalent-surface degree p (0 = default 6).
	Degree int `json:"degree,omitempty"`
	// MaxPoints is the leaf threshold s (0 = default 60).
	MaxPoints int `json:"max_points,omitempty"`
	// MaxDepth caps the octree depth (0 = uncapped).
	MaxDepth int `json:"max_depth,omitempty"`
	// Backend selects the M2L path: "", "fft" or "dense".
	Backend string `json:"backend,omitempty"`
	// PinvTol is the pseudo-inverse truncation (0 = default 1e-10).
	PinvTol float64 `json:"pinv_tol,omitempty"`
}

// options converts the request into library options, validating the
// kernel spec and backend name.
func (r *PlanRequest) options() (kifmm.Options, error) {
	k, err := kernels.FromSpec(r.Kernel)
	if err != nil {
		return kifmm.Options{}, err
	}
	var backend kifmm.M2LBackend
	switch r.Backend {
	case "", "fft":
		backend = kifmm.M2LFFT
	case "dense":
		backend = kifmm.M2LDense
	default:
		return kifmm.Options{}, errs.Newf(errs.CodeInvalidInput, "service: unknown M2L backend %q (want \"fft\" or \"dense\")", r.Backend)
	}
	return kifmm.Options{
		Kernel: k, Degree: r.Degree, MaxPoints: r.MaxPoints,
		MaxDepth: r.MaxDepth, Backend: backend, PinvTol: r.PinvTol,
	}, nil
}

// PlanInfo reports a registered plan.
type PlanInfo struct {
	// ID is the content-hash plan key; pass it to /v1/plans/{id}/evaluate.
	ID string `json:"plan_id"`
	// Cached reports whether the plan already existed (cache hit or
	// coalesced onto a concurrent build).
	Cached bool `json:"cached"`
	// Kernel echoes the plan's kernel spec, so clients holding only a
	// plan id can recover what it computes.
	Kernel kernels.Spec `json:"kernel"`
	// Boxes and Depth describe the octree.
	Boxes int `json:"boxes"`
	Depth int `json:"depth"`
	// SrcCount/TrgCount are point counts; SourceDim/TargetDim are the
	// kernel's density/potential component counts per point.
	SrcCount  int `json:"src_count"`
	TrgCount  int `json:"trg_count"`
	SourceDim int `json:"source_dim"`
	TargetDim int `json:"target_dim"`
	// FootprintBytes is the estimated resident size of the plan: the
	// tree plus this plan's share of the operators it uses (each shared
	// entry divided by the plans holding it, so shared bytes count once
	// across plans). It is the quantity byte-bounded caching evicts by;
	// lazily built operators make it grow after the first evaluation.
	FootprintBytes int64 `json:"footprint_bytes"`
	// BuildNanos is the plan construction time (0 when Cached).
	BuildNanos int64 `json:"build_ns,omitempty"`
}

// EvaluateRequest is the JSON body of POST /v1/plans/{id}/evaluate.
type EvaluateRequest struct {
	// Densities holds SourceDim components per source in input order.
	Densities []float64 `json:"densities"`
}

// EvaluateBatchRequest is the JSON body of POST
// /v1/plans/{id}/evaluate_batch: many density vectors evaluated in one
// engine sweep (one admission, near-field kernel evaluations amortized
// across the batch).
type EvaluateBatchRequest struct {
	// Densities holds one density vector per evaluation, each with
	// SourceDim components per source in input order.
	Densities [][]float64 `json:"densities"`
}

// EvalStats is the wire form of the per-stage evaluation breakdown
// (fmm.Stats), in nanoseconds.
type EvalStats struct {
	UpNanos    int64 `json:"up_ns"`
	DownUNanos int64 `json:"down_u_ns"`
	DownVNanos int64 `json:"down_v_ns"`
	DownWNanos int64 `json:"down_w_ns"`
	DownXNanos int64 `json:"down_x_ns"`
	EvalNanos  int64 `json:"eval_ns"`
	TotalNanos int64 `json:"total_ns"`
	Flops      int64 `json:"flops"`
	// GrantedLanes is the worker-lane width this evaluation was
	// admitted with by the elastic pool — MaxWorkers on an idle
	// server, degrading toward 1 under load. Widths never change
	// results, only wall clock.
	GrantedLanes int `json:"granted_lanes"`
}

func statsWire(s fmm.Stats) EvalStats {
	return EvalStats{
		UpNanos:      s.Up.Nanoseconds(),
		DownUNanos:   s.DownU.Nanoseconds(),
		DownVNanos:   s.DownV.Nanoseconds(),
		DownWNanos:   s.DownW.Nanoseconds(),
		DownXNanos:   s.DownX.Nanoseconds(),
		EvalNanos:    s.Eval.Nanoseconds(),
		TotalNanos:   s.Total().Nanoseconds(),
		Flops:        s.Flops(),
		GrantedLanes: s.Lanes,
	}
}

// EvaluateResponse is the JSON body the single-vector routes answer with:
// an EvaluateBatchResponse whose one potential vector is written bare.
type EvaluateResponse struct {
	PlanID     string     `json:"plan_id"`
	Potentials []float64  `json:"potentials"`
	Stats      EvalStats  `json:"stats"`
	Trace      *TraceSpan `json:"trace,omitempty"`
}

// EvaluateBatchResponse is the result of one evaluation, at every layer:
// what Service.Evaluate returns, what the codecs encode and what the
// client decodes. It carries one potentials vector per density vector
// (TargetDim components per target, input order preserved), the stage
// timing of the whole sweep and its span tree — which the HTTP layer
// keeps only under ?trace=1. As JSON it is the body of the batch route.
type EvaluateBatchResponse struct {
	PlanID     string      `json:"plan_id"`
	Potentials [][]float64 `json:"potentials"`
	Stats      EvalStats   `json:"stats"`
	Trace      *TraceSpan  `json:"trace,omitempty"`
}

// RecentEvalsResponse is the JSON body of GET /v1/evals/recent: the
// span trees of recent evaluations, newest first, from a bounded
// in-memory ring (Config.TraceRing).
type RecentEvalsResponse struct {
	// Total counts evaluations ever traced, including those the ring
	// has evicted.
	Total int64 `json:"total"`
	// Traces holds up to ?n= (default: all retained) span trees.
	Traces []*TraceSpan `json:"traces"`
}

// OneShotRequest is the JSON body of POST /v1/evaluate: a plan plus the
// densities, evaluated in one round trip (the plan is still cached).
type OneShotRequest struct {
	PlanRequest
	Densities []float64 `json:"densities"`
}

// HealthResponse is the JSON body of GET /healthz.
type HealthResponse struct {
	Status        string  `json:"status"`
	Plans         int     `json:"plans"`
	UptimeSeconds float64 `json:"uptime_seconds"`
}
