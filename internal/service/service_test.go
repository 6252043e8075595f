package service

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"testing"

	kifmm "repro"
	"repro/internal/errs"
	"repro/internal/kernels"
)

// bg is the context for test calls that exercise no cancellation.
var bg = context.Background()

// cloudRequest builds a deterministic point cloud distinct per seed.
func cloudRequest(seed, n int) PlanRequest {
	pts := make([]float64, 3*n)
	state := uint64(seed)*2654435761 + 1
	for i := range pts {
		state = state*6364136223846793005 + 1442695040888963407
		pts[i] = float64(state>>11)/float64(1<<53)*2 - 1
	}
	return PlanRequest{
		Src:    pts,
		Kernel: kernels.Spec{Name: "laplace"},
		Degree: 4, MaxPoints: 40,
	}
}

// evalOne evaluates a single density vector — the batch of one the
// single-vector HTTP routes hand Service.Evaluate.
func evalOne(ctx context.Context, svc *Service, planID string, den []float64) ([]float64, EvalStats, error) {
	res, err := svc.Evaluate(ctx, planID, [][]float64{den})
	if err != nil {
		return nil, EvalStats{}, err
	}
	return res.Potentials[0], res.Stats, nil
}

func densitiesFor(req PlanRequest, dim int) []float64 {
	n := len(req.Src) / 3 * dim
	den := make([]float64, n)
	for i := range den {
		den[i] = float64(i%13)/13 + 0.1
	}
	return den
}

func relErr(got, want []float64) float64 {
	num, den := 0.0, 0.0
	for i := range got {
		d := got[i] - want[i]
		num += d * d
		den += want[i] * want[i]
	}
	return math.Sqrt(num / den)
}

func TestSingleflightBuildsOnePlan(t *testing.T) {
	svc := New(Config{CacheSize: 4})
	req := cloudRequest(1, 600)

	const callers = 8
	var wg sync.WaitGroup
	start := make(chan struct{})
	infos := make([]PlanInfo, callers)
	errs := make([]error, callers)
	for i := 0; i < callers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			<-start
			infos[i], errs[i] = svc.Register(bg, req)
		}(i)
	}
	close(start)
	wg.Wait()

	for i, err := range errs {
		if err != nil {
			t.Fatalf("caller %d: %v", i, err)
		}
	}
	for i := 1; i < callers; i++ {
		if infos[i].ID != infos[0].ID {
			t.Fatalf("caller %d got plan %s, caller 0 got %s", i, infos[i].ID, infos[0].ID)
		}
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_plans_built_total"] != 1 {
		t.Errorf("PlansBuilt = %v, want 1 (singleflight)", m["kifmm_plans_built_total"])
	}
	if m["kifmm_plan_cache_misses_total"] != 1 {
		t.Errorf("CacheMisses = %v, want 1", m["kifmm_plan_cache_misses_total"])
	}
	if m["kifmm_plan_cache_hits_total"]+m["kifmm_plan_builds_coalesced_total"] != callers-1 {
		t.Errorf("hits (%v) + coalesced (%v) = %v, want %d",
			m["kifmm_plan_cache_hits_total"], m["kifmm_plan_builds_coalesced_total"], m["kifmm_plan_cache_hits_total"]+m["kifmm_plan_builds_coalesced_total"], callers-1)
	}

	// A later identical registration is a pure cache hit.
	hitsBefore := m["kifmm_plan_cache_hits_total"]
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Cached {
		t.Errorf("re-registration not served from cache")
	}
	if m = svc.MetricsRegistry().Snapshot(); m["kifmm_plan_cache_hits_total"] != hitsBefore+1 {
		t.Errorf("CacheHits = %v, want %v", m["kifmm_plan_cache_hits_total"], hitsBefore+1)
	}
	if m["kifmm_plans_built_total"] != 1 {
		t.Errorf("PlansBuilt grew to %v on a cache hit", m["kifmm_plans_built_total"])
	}
}

func TestEvaluateMatchesDirect(t *testing.T) {
	svc := New(Config{})
	req := cloudRequest(2, 400)
	req.Degree = 6

	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if info.SourceDim != 1 || info.TargetDim != 1 {
		t.Fatalf("laplace dims = %d/%d, want 1/1", info.SourceDim, info.TargetDim)
	}
	if info.Kernel.Name != "laplace" {
		t.Errorf("plan info kernel echo = %+v, want laplace", info.Kernel)
	}

	// The kernel echo is normalized: defaulted parameters come back
	// explicit, independent of how the client spelled the spec.
	stokes, err := svc.Register(bg, PlanRequest{Src: req.Src, Kernel: kernels.Spec{Name: "stokes"}})
	if err != nil {
		t.Fatal(err)
	}
	if mu := stokes.Kernel.Params["mu"]; mu != 1 {
		t.Errorf("stokes echo params = %v, want explicit mu=1", stokes.Kernel.Params)
	}
	den := densitiesFor(req, info.SourceDim)
	got, st, err := evalOne(bg, svc, info.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	if st.TotalNanos <= 0 {
		t.Errorf("evaluation stats empty: %+v", st)
	}

	k, err := kernels.FromSpec(req.Kernel)
	if err != nil {
		t.Fatal(err)
	}
	want, err := kifmm.Direct(k, req.Src, req.Src, den)
	if err != nil {
		t.Fatal(err)
	}
	if e := relErr(got, want); e > 1e-4 {
		t.Errorf("relative error vs direct summation %.3e, want <= 1e-4 at degree 6", e)
	}

	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_evaluations_total"] != 1 {
		t.Errorf("Evaluations = %v, want 1", m["kifmm_evaluations_total"])
	}
	if m[`kifmm_stage_seconds_sum{stage="up"}`] <= 0 || m["kifmm_flops_total"] <= 0 {
		t.Errorf("stage totals not recorded: %v", m)
	}
}

func TestLRUEviction(t *testing.T) {
	svc := New(Config{CacheSize: 2})

	var ids []string
	for seed := 1; seed <= 3; seed++ {
		info, err := svc.Register(bg, cloudRequest(seed, 120))
		if err != nil {
			t.Fatal(err)
		}
		ids = append(ids, info.ID)
	}
	if n := svc.Plans(); n != 2 {
		t.Errorf("live plans = %d, want capacity 2", n)
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_plan_cache_evictions_total"] != 1 {
		t.Errorf("PlansEvicted = %v, want 1", m["kifmm_plan_cache_evictions_total"])
	}

	// The oldest plan is gone; the two recent ones still evaluate.
	den := densitiesFor(cloudRequest(1, 120), 1)
	if _, _, err := evalOne(bg, svc, ids[0], den); !errors.Is(err, errs.ErrPlanNotFound) {
		t.Errorf("evicted plan: err = %v, want errs.ErrPlanNotFound", err)
	}
	for _, id := range ids[1:] {
		if _, _, err := evalOne(bg, svc, id, den); err != nil {
			t.Errorf("live plan %s: %v", id, err)
		}
	}

	// Touching the LRU order changes the next victim: re-register plan 2
	// (hit), then a fresh plan must evict plan 3.
	if _, err := svc.Register(bg, cloudRequest(2, 120)); err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(bg, cloudRequest(4, 120)); err != nil {
		t.Fatal(err)
	}
	if _, _, err := evalOne(bg, svc, ids[2], den); !errors.Is(err, errs.ErrPlanNotFound) {
		t.Errorf("plan 3 should be the LRU victim, err = %v", err)
	}
	if _, _, err := evalOne(bg, svc, ids[1], den); err != nil {
		t.Errorf("plan 2 was touched and must survive: %v", err)
	}
}

func TestConcurrentEvaluations(t *testing.T) {
	svc := New(Config{MaxWorkers: 4})

	// Two plans; hammer both concurrently and check every result against
	// a per-plan reference. Calls sharing a plan run concurrently
	// (evaluation is read-only on plan state); the pool bounds them.
	type fixture struct {
		id   string
		den  []float64
		want []float64
	}
	var fixtures []fixture
	for seed := 1; seed <= 2; seed++ {
		req := cloudRequest(seed, 200)
		info, err := svc.Register(bg, req)
		if err != nil {
			t.Fatal(err)
		}
		den := densitiesFor(req, 1)
		k, _ := kernels.FromSpec(req.Kernel)
		want, err := kifmm.Direct(k, req.Src, req.Src, den)
		if err != nil {
			t.Fatal(err)
		}
		fixtures = append(fixtures, fixture{info.ID, den, want})
	}

	const rounds = 6
	var wg sync.WaitGroup
	errc := make(chan error, 2*rounds)
	for _, f := range fixtures {
		for r := 0; r < rounds; r++ {
			wg.Add(1)
			go func(f fixture) {
				defer wg.Done()
				got, _, err := evalOne(bg, svc, f.id, f.den)
				if err != nil {
					errc <- err
					return
				}
				if e := relErr(got, f.want); e > 1e-2 {
					errc <- fmt.Errorf("plan %s: error %.3e under concurrency", f.id, e)
				}
			}(f)
		}
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if m := svc.MetricsRegistry().Snapshot(); m["kifmm_evaluations_total"] != 2*rounds {
		t.Errorf("Evaluations = %v, want %v", m["kifmm_evaluations_total"], 2*rounds)
	}
}

// TestConcurrentSharedPlanIdentical hammers ONE cached plan from many
// goroutines — the headline many-clients-one-geometry workload — and
// requires every result to be bitwise identical to an undisturbed
// sequential evaluation. Run under -race this is the canary for any
// evaluation-path mutation of shared plan state.
func TestConcurrentSharedPlanIdentical(t *testing.T) {
	svc := New(Config{MaxWorkers: 8})
	req := cloudRequest(3, 500)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)
	want, _, err := evalOne(bg, svc, info.ID, den)
	if err != nil {
		t.Fatal(err)
	}

	const callers = 16
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	start := make(chan struct{})
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			<-start
			got, st, err := evalOne(bg, svc, info.ID, den)
			if err != nil {
				errc <- err
				return
			}
			if st.TotalNanos <= 0 {
				errc <- fmt.Errorf("caller %d: empty per-call stats", c)
			}
			for i := range got {
				if got[i] != want[i] {
					errc <- fmt.Errorf("caller %d: result differs at %d under concurrency", c, i)
					return
				}
			}
		}(c)
	}
	close(start)
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}
}

// TestEvaluateBatch: the batch path must agree with per-vector
// evaluations and count one evaluation per vector in the metrics.
func TestEvaluateBatch(t *testing.T) {
	svc := New(Config{})
	req := cloudRequest(4, 300)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	const k = 4
	dens := make([][]float64, k)
	want := make([][]float64, k)
	for q := 0; q < k; q++ {
		dens[q] = densitiesFor(req, info.SourceDim)
		for i := range dens[q] {
			dens[q][i] += float64(q)
		}
		pot, _, err := evalOne(bg, svc, info.ID, dens[q])
		if err != nil {
			t.Fatal(err)
		}
		want[q] = pot
	}
	evalsBefore := svc.MetricsRegistry().Snapshot()["kifmm_evaluations_total"]

	res, err := svc.Evaluate(bg, info.ID, dens)
	if err != nil {
		t.Fatal(err)
	}
	pots, st := res.Potentials, res.Stats
	if len(pots) != k {
		t.Fatalf("got %d potential vectors, want %d", len(pots), k)
	}
	if st.TotalNanos <= 0 {
		t.Errorf("batch stats empty: %+v", st)
	}
	for q := range pots {
		for i := range pots[q] {
			if math.Float64bits(pots[q][i]) != math.Float64bits(want[q][i]) {
				t.Fatalf("batch vector %d differs from its single evaluation at %d: %v vs %v", q, i, pots[q][i], want[q][i])
			}
		}
	}
	if got := svc.MetricsRegistry().Snapshot()["kifmm_evaluations_total"] - evalsBefore; got != k {
		t.Errorf("batch of %d counted %v evaluations", k, got)
	}

	// Validation: empty batch, ragged vector, unknown plan, batch bomb.
	if _, err := svc.Evaluate(bg, info.ID, nil); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("empty batch: err = %v, want errs.ErrInvalidInput", err)
	}
	if _, err := svc.Evaluate(bg, info.ID, [][]float64{dens[0], {1}}); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("ragged batch: err = %v, want errs.ErrInvalidInput", err)
	}
	if _, err := svc.Evaluate(bg, "no-such-plan", dens); !errors.Is(err, errs.ErrPlanNotFound) {
		t.Errorf("unknown plan: err = %v, want errs.ErrPlanNotFound", err)
	}
	huge := make([][]float64, maxBatchSize+1)
	for i := range huge {
		huge[i] = dens[0]
	}
	if _, err := svc.Evaluate(bg, info.ID, huge); !errors.Is(err, errs.ErrPlanTooLarge) {
		t.Errorf("oversized batch: err = %v, want errs.ErrPlanTooLarge (413)", err)
	}
}

// TestBytesBoundedEviction: the cache must evict by summed estimated
// footprint, not only by plan count.
func TestBytesBoundedEviction(t *testing.T) {
	probe := New(Config{})
	first, err := probe.Register(bg, cloudRequest(1, 150))
	if err != nil {
		t.Fatal(err)
	}
	if first.FootprintBytes <= 0 {
		t.Fatalf("plan footprint estimate = %d, want > 0", first.FootprintBytes)
	}

	// Budget for ~1.5 equally sized plans: the second registration must
	// evict the first even though the count bound (32) is far away.
	svc := New(Config{CacheBytes: first.FootprintBytes * 3 / 2})
	a, err := svc.Register(bg, cloudRequest(1, 150))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := svc.Register(bg, cloudRequest(2, 150)); err != nil {
		t.Fatal(err)
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_plans_live"] != 1 || m["kifmm_plan_cache_evictions_total"] != 1 {
		t.Errorf("live=%v evicted=%v after exceeding byte budget, want 1/1", m["kifmm_plans_live"], m["kifmm_plan_cache_evictions_total"])
	}
	if m["kifmm_plan_cache_bytes"] > float64(svc.cfg.CacheBytes) {
		t.Errorf("PlansBytes = %v exceeds budget %v", m["kifmm_plan_cache_bytes"], svc.cfg.CacheBytes)
	}
	den := densitiesFor(cloudRequest(1, 150), 1)
	if _, _, err := evalOne(bg, svc, a.ID, den); !errors.Is(err, errs.ErrPlanNotFound) {
		t.Errorf("byte-evicted plan: err = %v, want errs.ErrPlanNotFound", err)
	}

	// A single plan larger than the whole budget is still retained (the
	// registering caller holds it anyway).
	tiny := New(Config{CacheBytes: 1})
	info, err := tiny.Register(bg, cloudRequest(3, 150))
	if err != nil {
		t.Fatal(err)
	}
	if tiny.Plans() != 1 {
		t.Errorf("oversized plan not retained, live = %d", tiny.Plans())
	}
	if _, _, err := evalOne(bg, tiny, info.ID, den); err != nil {
		t.Errorf("oversized-but-newest plan must evaluate: %v", err)
	}
}

// TestCacheBytesCountsLivePlansOnly: fourteen one-shot evaluations over
// distinct geometries of a non-homogeneous kernel (every plan its own
// operators) under a byte bound of four and a half plans. An evicted
// plan's operators leave with it, so the cache settles at four plans and
// its total stays within the bound plus the newest plan (admitted before
// its first evaluation builds its operators). When footprints counted
// everything ever built for the kernel and degree, the total only grew
// and the bound evicted live plans, down to one, for bytes nothing could
// free.
func TestCacheBytesCountsLivePlansOnly(t *testing.T) {
	req := func(seed int) OneShotRequest {
		r := cloudRequest(seed, 600)
		r.Kernel = kernels.Spec{Name: "modlaplace", Params: map[string]float64{"lambda": 0.4567891}}
		r.MaxPoints = 20
		return OneShotRequest{PlanRequest: r, Densities: densitiesFor(r, 1)}
	}
	probe := New(Config{})
	if _, err := probe.EvaluateOnce(bg, req(100)); err != nil {
		t.Fatal(err)
	}
	one := probe.PlansBytes()

	svc := New(Config{CacheBytes: one * 9 / 2})
	for seed := 1; seed <= 14; seed++ {
		if _, err := svc.EvaluateOnce(bg, req(seed)); err != nil {
			t.Fatal(err)
		}
		if got := svc.PlansBytes(); got > svc.cfg.CacheBytes+one*5/4 {
			t.Errorf("after %d registrations PlansBytes = %d, want <= budget %d + the newest plan (~%d)", seed, got, svc.cfg.CacheBytes, one)
		}
	}
	if got := svc.Plans(); got < 3 {
		t.Errorf("%d plans cached after 14 registrations under a budget of 4.5 plans, want >= 3", got)
	}
}

func TestRegisterValidation(t *testing.T) {
	svc := New(Config{})
	cases := []struct {
		req  PlanRequest
		want error
	}{
		{PlanRequest{Kernel: kernels.Spec{Name: "laplace"}}, errs.ErrInvalidInput},                                           // no geometry
		{PlanRequest{Src: []float64{1, 2}, Kernel: kernels.Spec{Name: "laplace"}}, errs.ErrInvalidInput},                     // not 3k
		{PlanRequest{Src: []float64{1, 2, 3}, Kernel: kernels.Spec{Name: "nope"}}, kifmm.ErrUnknownKernel},                   // bad kernel
		{PlanRequest{Src: []float64{1, 2, 3}, Kernel: kernels.Spec{Name: "laplace"}, Degree: 1000000}, errs.ErrPlanTooLarge}, // degree bomb
		{PlanRequest{Src: []float64{1, 2, 3}, Kernel: kernels.Spec{Name: "laplace"}, Degree: -1}, errs.ErrInvalidInput},
		{PlanRequest{Src: []float64{1, 2, 3}, Kernel: kernels.Spec{Name: "laplace"}, MaxPoints: -5}, errs.ErrInvalidInput},
		{PlanRequest{Src: []float64{1, 2, 3}, Kernel: kernels.Spec{Name: "laplace"}, MaxDepth: 99}, errs.ErrPlanTooLarge},
		{PlanRequest{Src: []float64{1e308, 0, 0, -1e308, 0, 0}, Kernel: kernels.Spec{Name: "laplace"}}, errs.ErrInvalidInput},            // bounding cube overflows
		{PlanRequest{Src: []float64{math.NaN(), 0, 0}, Kernel: kernels.Spec{Name: "laplace"}}, errs.ErrInvalidInput},                     // NaN coordinate
		{PlanRequest{Src: []float64{0, 0, 0}, Trg: []float64{1e308, 0, 0}, Kernel: kernels.Spec{Name: "laplace"}}, errs.ErrInvalidInput}, // bad trg
	}
	for i, tc := range cases {
		if _, err := svc.Register(bg, tc.req); !errors.Is(err, tc.want) {
			t.Errorf("case %d: err = %v, want %v", i, err, tc.want)
		}
	}

	req := cloudRequest(1, 90)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := evalOne(bg, svc, info.ID, make([]float64, 7)); !errors.Is(err, errs.ErrInvalidInput) {
		t.Errorf("bad density length: err = %v, want errs.ErrInvalidInput", err)
	}
}
