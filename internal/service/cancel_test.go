package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"net/http"
	"net/http/httptest"
	"runtime"
	"testing"
	"time"

	kifmm "repro"
	"repro/internal/errs"
)

// slowPlan registers a plan big enough that one evaluation spans many
// engine dispatches, so cancellations have something to interrupt.
func slowPlan(t *testing.T, svc *Service) (PlanInfo, []float64) {
	t.Helper()
	req := cloudRequest(17, 4000)
	req.Degree = 6
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	return info, densitiesFor(req, info.SourceDim)
}

// TestEvaluateCancelMidSweep: cancelling the evaluation context aborts
// the engine sweep with the typed error, counts as a cancellation (not
// an eval error), and leaves the plan fully usable.
func TestEvaluateCancelMidSweep(t *testing.T) {
	svc := New(Config{})
	info, den := slowPlan(t, svc)

	// Uncancelled reference, timed on the second of two evaluations: the
	// first builds the lazy operators, which can take several times a
	// whole warm sweep, and a cancel timed from it could land after the
	// sweep it means to interrupt.
	var full time.Duration
	for i := 0; i < 2; i++ {
		start := time.Now()
		if _, _, err := evalOne(bg, svc, info.ID, den); err != nil {
			t.Fatal(err)
		}
		full = time.Since(start)
	}

	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(full / 8)
		cancel()
	}()
	start := time.Now()
	_, _, err := evalOne(ctx, svc, info.ID, den)
	aborted := time.Since(start)
	if !errors.Is(err, kifmm.ErrCanceled) || !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want kifmm.ErrCanceled and context.Canceled", err)
	}
	if aborted > full*3/4 {
		t.Errorf("cancelled evaluation took %v of an uncancelled %v", aborted, full)
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_eval_canceled_total"] != 1 {
		t.Errorf("EvalCanceled = %v, want 1", m["kifmm_eval_canceled_total"])
	}
	if m["kifmm_eval_errors_total"] != 0 {
		t.Errorf("EvalErrors = %v; cancellations must not count as errors", m["kifmm_eval_errors_total"])
	}
	// The cancelled evaluation is in the recent-evaluations ring like a
	// finished one: its ended, partial tree, under the code it failed with.
	sp := svc.RecentSpans(1)[0]
	if sp.Name != "evaluate" || sp.Attrs["error_code"] != "canceled" || sp.Attrs["plan_id"] != info.ID {
		t.Errorf("newest recent span = %s %v, want the cancelled evaluate with error_code=canceled and plan_id=%s", sp.Name, sp.Attrs, info.ID)
	}
	if sp.Duration <= 0 || sp.Duration > aborted || sp.Find("permute") == nil || sp.Find("unpermute") != nil {
		t.Errorf("cancelled tree: duration %v (call took %v), permute %v, unpermute %v; want an ended tree that stops mid-sweep",
			sp.Duration, aborted, sp.Find("permute"), sp.Find("unpermute"))
	}
	if ok := svc.RecentSpans(2)[1]; ok.Attrs["error_code"] != "" {
		t.Errorf("the uncancelled evaluation's span carries error_code=%q", ok.Attrs["error_code"])
	}
	if _, _, err := evalOne(bg, svc, info.ID, den); err != nil {
		t.Errorf("evaluation after a cancelled one failed: %v", err)
	}
}

// TestWorkerSlotWaitHonorsContext: a request queued at admission behind
// a saturated elastic pool leaves the queue when its context ends,
// without ever being granted a lane.
func TestWorkerSlotWaitHonorsContext(t *testing.T) {
	svc := New(Config{MaxWorkers: 1})
	info, den := slowPlan(t, svc)

	// Saturate the pool's only lane directly (in-package test): the
	// lease never runs a sweep, so no lanes flow back and any queued
	// evaluation waits until we release it.
	lease, err := svc.pool.Acquire(context.Background(), 0)
	if err != nil {
		t.Fatal(err)
	}
	defer lease.Release()

	ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
	defer cancel()
	start := time.Now()
	_, _, err = evalOne(ctx, svc, info.ID, den)
	if !errors.Is(err, kifmm.ErrDeadlineExceeded) {
		t.Fatalf("queued eval: err = %v, want ErrDeadlineExceeded", err)
	}
	if d := time.Since(start); d > time.Second {
		t.Errorf("queued eval returned after %v, want promptly at its deadline", d)
	}
}

// TestRegisterCancelledBuild: a cancelled registration returns the
// typed error, starts no build (one that finished before its caller
// left could be cached), and a retry builds cleanly.
func TestRegisterCancelledBuild(t *testing.T) {
	svc := New(Config{})
	req := cloudRequest(18, 800)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := svc.Register(ctx, req); !errors.Is(err, kifmm.ErrCanceled) {
		t.Fatalf("cancelled register: err = %v, want ErrCanceled", err)
	}
	if n := svc.m.cacheMisses.Value(); n != 0 {
		t.Errorf("cancelled register started %d builds", n)
	}
	if n := svc.Plans(); n != 0 {
		t.Errorf("cancelled build cached %d plans", n)
	}
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatalf("retry after cancelled build: %v", err)
	}
	if _, _, err := evalOne(bg, svc, info.ID, densitiesFor(req, info.SourceDim)); err != nil {
		t.Errorf("evaluate after retried build: %v", err)
	}
}

// TestHTTPClientDisconnectCancelsSweep is the end-to-end acceptance
// path: a client opens an evaluation over real HTTP and walks away;
// r.Context() cancels, the ctx plumbing aborts the server-side FMM
// sweep within one pass, and the service records a cancellation — with
// no goroutine left behind.
func TestHTTPClientDisconnectCancelsSweep(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()
	info, den := slowPlan(t, svc)
	if _, _, err := evalOne(bg, svc, info.ID, den); err != nil { // warm caches
		t.Fatal(err)
	}
	before := runtime.NumGoroutine()

	body, err := json.Marshal(EvaluateRequest{Densities: den})
	if err != nil {
		t.Fatal(err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	req, err := http.NewRequestWithContext(ctx, http.MethodPost,
		ts.URL+"/v1/plans/"+info.ID+"/evaluate", bytes.NewReader(body))
	if err != nil {
		t.Fatal(err)
	}
	req.Header.Set("Content-Type", "application/json")
	go func() {
		time.Sleep(15 * time.Millisecond)
		cancel()
	}()
	resp, err := http.DefaultClient.Do(req)
	if err == nil {
		resp.Body.Close()
		t.Skip("evaluation finished before the disconnect; nothing to observe")
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("client-side err = %v, want context.Canceled", err)
	}

	// The server-side sweep must abort and be recorded as a cancellation.
	deadline := time.Now().Add(5 * time.Second)
	for svc.MetricsRegistry().Snapshot()["kifmm_eval_canceled_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatalf("server never recorded the cancelled evaluation; metrics %+v", svc.MetricsRegistry().Snapshot())
		}
		time.Sleep(5 * time.Millisecond)
	}
	// And the handler goroutines must drain.
	deadline = time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if runtime.NumGoroutine() <= before+2 { // httptest keeps a couple of idle conns
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("goroutines: %d before, %d after disconnect", before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	// The plan survives for the next caller.
	if _, _, err := evalOne(bg, svc, info.ID, den); err != nil {
		t.Errorf("evaluation after a disconnected one failed: %v", err)
	}
}

// TestHTTPEvalTimeout: the configured per-request deadline turns a
// too-slow evaluation into 504 / deadline_exceeded on the wire.
func TestHTTPEvalTimeout(t *testing.T) {
	svc := New(Config{})
	info, den := slowPlan(t, svc)
	if _, _, err := evalOne(bg, svc, info.ID, den); err != nil { // warm caches
		t.Fatal(err)
	}
	ts := httptest.NewServer(NewServer(svc, WithEvalTimeout(2*time.Millisecond)))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/plans/"+info.ID+"/evaluate", EvaluateRequest{Densities: den})
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusGatewayTimeout {
		raw, _ := io.ReadAll(io.LimitReader(resp.Body, 1024))
		t.Fatalf("status = %d (%s), want 504", resp.StatusCode, raw)
	}
	e := decode[errorResponse](t, resp)
	if e.Code != string(errs.CodeDeadlineExceeded) {
		t.Errorf("wire code = %q, want %q", e.Code, errs.CodeDeadlineExceeded)
	}
}

// TestStatusOfMapping pins the taxonomy -> HTTP status table.
func TestStatusOfMapping(t *testing.T) {
	cases := []struct {
		err    error
		status int
		code   errs.Code
	}{
		{errs.ErrInvalidInput, http.StatusBadRequest, errs.CodeInvalidInput},
		{errs.ErrUnknownKernel, http.StatusBadRequest, errs.CodeUnknownKernel},
		{errs.ErrPlanNotFound, http.StatusNotFound, errs.CodePlanNotFound},
		{errs.ErrPlanTooLarge, http.StatusRequestEntityTooLarge, errs.CodePlanTooLarge},
		{errs.ErrCanceled, StatusClientClosedRequest, errs.CodeCanceled},
		{errs.ErrDeadlineExceeded, http.StatusGatewayTimeout, errs.CodeDeadlineExceeded},
		{errs.ErrInternal, http.StatusInternalServerError, errs.CodeInternal},
		{context.Canceled, StatusClientClosedRequest, errs.CodeCanceled},
		{context.DeadlineExceeded, http.StatusGatewayTimeout, errs.CodeDeadlineExceeded},
		{errors.New("mystery"), http.StatusInternalServerError, errs.CodeInternal},
	}
	for _, tc := range cases {
		status, code := statusOf(tc.err)
		if status != tc.status || code != tc.code {
			t.Errorf("statusOf(%v) = (%d, %q), want (%d, %q)", tc.err, status, code, tc.status, tc.code)
		}
	}
}

// TestHTTPWireCodes: the machine-readable code rides the error envelope
// for representative failures.
func TestHTTPWireCodes(t *testing.T) {
	svc := New(Config{})
	ts := httptest.NewServer(NewServer(svc))
	defer ts.Close()

	resp := postJSON(t, ts.URL+"/v1/plans", PlanRequest{Src: []float64{0, 0, 0}, Kernel: KernelSpec{Name: "warp"}})
	if e := decode[errorResponse](t, resp); resp.StatusCode != http.StatusBadRequest || e.Code != string(errs.CodeUnknownKernel) {
		t.Errorf("unknown kernel: status %d code %q, want 400 %q", resp.StatusCode, e.Code, errs.CodeUnknownKernel)
	}

	resp = postJSON(t, ts.URL+"/v1/plans/deadbeef/evaluate", EvaluateRequest{Densities: []float64{1}})
	if e := decode[errorResponse](t, resp); resp.StatusCode != http.StatusNotFound || e.Code != string(errs.CodePlanNotFound) {
		t.Errorf("unknown plan: status %d code %q, want 404 %q", resp.StatusCode, e.Code, errs.CodePlanNotFound)
	}

	resp = postJSON(t, ts.URL+"/v1/plans", PlanRequest{Src: []float64{0, 0, 0}, Kernel: KernelSpec{Name: "laplace"}, Degree: 1 << 20})
	if e := decode[errorResponse](t, resp); resp.StatusCode != http.StatusRequestEntityTooLarge || e.Code != string(errs.CodePlanTooLarge) {
		t.Errorf("degree bomb: status %d code %q, want 413 %q", resp.StatusCode, e.Code, errs.CodePlanTooLarge)
	}
}

// TestCoalescedWaiterSurvivesInitiatorDisconnect is the singleflight
// detachment acceptance test: the caller that initiated a plan build
// disconnects mid-build, and a coalesced waiter still receives the
// finished plan — no cancellation error, no retry, no second build.
func TestCoalescedWaiterSurvivesInitiatorDisconnect(t *testing.T) {
	svc := New(Config{})
	started := make(chan string, 4)
	release := make(chan struct{})
	svc.buildBarrier = func(key string) {
		started <- key
		<-release
	}
	req := cloudRequest(21, 400)

	ictx, icancel := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := svc.Register(ictx, req)
		initiatorErr <- err
	}()
	<-started // the build goroutine is running and blocked on the barrier

	type result struct {
		info PlanInfo
		err  error
	}
	waiterRes := make(chan result, 1)
	go func() {
		info, err := svc.Register(bg, req)
		waiterRes <- result{info, err}
	}()
	// The waiter must have coalesced onto the in-flight build before the
	// initiator walks away.
	deadline := time.Now().Add(5 * time.Second)
	for svc.MetricsRegistry().Snapshot()["kifmm_plan_builds_coalesced_total"] == 0 {
		if time.Now().After(deadline) {
			t.Fatal("second caller never coalesced onto the in-flight build")
		}
		time.Sleep(time.Millisecond)
	}

	icancel()
	if err := <-initiatorErr; !errors.Is(err, kifmm.ErrCanceled) {
		t.Fatalf("initiator err = %v, want ErrCanceled", err)
	}
	close(release) // let the (now initiator-less) build finish

	r := <-waiterRes
	if r.err != nil {
		t.Fatalf("coalesced waiter err = %v, want the finished plan", r.err)
	}
	if r.info.ID == "" {
		t.Fatal("coalesced waiter got an empty plan id")
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_plans_built_total"] != 1 || m["kifmm_plan_cache_misses_total"] != 1 {
		t.Errorf("built=%v misses=%v, want exactly one build with no retry", m["kifmm_plans_built_total"], m["kifmm_plan_cache_misses_total"])
	}
	// The plan is cached and usable.
	if _, _, err := evalOne(bg, svc, r.info.ID, densitiesFor(req, r.info.SourceDim)); err != nil {
		t.Errorf("evaluation on the surviving plan failed: %v", err)
	}
}

// TestBuildCancelledWhenAllWaitersLeave: when the initiator disconnects
// and no one has coalesced, the detached build is cancelled instead of
// running to completion for nobody, and nothing is cached.
func TestBuildCancelledWhenAllWaitersLeave(t *testing.T) {
	svc := New(Config{})
	started := make(chan string, 1)
	release := make(chan struct{})
	svc.buildBarrier = func(key string) {
		started <- key
		<-release
	}
	req := cloudRequest(22, 400)

	ictx, icancel := context.WithCancel(context.Background())
	initiatorErr := make(chan error, 1)
	go func() {
		_, err := svc.Register(ictx, req)
		initiatorErr <- err
	}()
	<-started
	icancel()
	if err := <-initiatorErr; !errors.Is(err, kifmm.ErrCanceled) {
		t.Fatalf("initiator err = %v, want ErrCanceled", err)
	}
	close(release)

	// The orphaned build sees its cancelled context and settles without
	// caching anything.
	deadline := time.Now().Add(5 * time.Second)
	for {
		svc.mu.Lock()
		n := len(svc.building)
		svc.mu.Unlock()
		if n == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("orphaned build never settled")
		}
		time.Sleep(time.Millisecond)
	}
	if n := svc.Plans(); n != 0 {
		t.Errorf("orphaned build cached %d plans, want 0", n)
	}
	if m := svc.MetricsRegistry().Snapshot(); m["kifmm_plans_built_total"] != 0 {
		t.Errorf("PlansBuilt = %v, want 0 (the build was cancelled)", m["kifmm_plans_built_total"])
	}

	// A fresh registration afterwards builds cleanly.
	svc.buildBarrier = nil
	if _, err := svc.Register(bg, req); err != nil {
		t.Fatalf("register after orphaned build: %v", err)
	}
}
