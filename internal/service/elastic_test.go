package service

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// TestAdaptiveWidthIdleFanout asserts the headline scheduling property
// at the service level: with the service otherwise idle, a single
// evaluation is granted the full pool width (> 1), visible both in the
// per-response stats and in the granted-width histogram.
func TestAdaptiveWidthIdleFanout(t *testing.T) {
	svc := New(Config{MaxWorkers: 4})
	req := cloudRequest(21, 300)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)
	_, st, err := evalOne(bg, svc, info.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	if st.GrantedLanes != 4 {
		t.Errorf("idle evaluation granted %d lanes, want the full 4", st.GrantedLanes)
	}
	m := svc.MetricsRegistry().Snapshot()
	if m["kifmm_max_lanes"] != 4 {
		t.Errorf("MaxLanes = %v, want 4", m["kifmm_max_lanes"])
	}
	if m[`kifmm_granted_width_total{width="4"}`] != 1 {
		t.Errorf("granted widths %v, want one evaluation at width 4", grantedWidths(m))
	}
	// The build was admitted through the pool too (one lane), so the
	// lane counter covers build + evaluation.
	if m["kifmm_lanes_granted_total"] < 5 {
		t.Errorf("LanesGrantedTotal = %v, want >= 5 (1 build + 4 eval lanes)", m["kifmm_lanes_granted_total"])
	}
	if m["kifmm_lanes_in_use"] != 0 {
		t.Errorf("LanesInUse = %v after the evaluation returned", m["kifmm_lanes_in_use"])
	}
	// The evaluation left its workspace on the pool for the next one.
	if m["kifmm_workspace_bytes"] <= 0 {
		t.Errorf("WorkspaceBytes = %v after an evaluation, want > 0", m["kifmm_workspace_bytes"])
	}
}

// TestAdaptiveWidthSaturation: more parallel requests than lanes on a
// small pool — every request is admitted with at least one lane, the
// lanes-in-use gauge never exceeds the capacity, and the histogram
// records every admission.
func TestAdaptiveWidthSaturation(t *testing.T) {
	svc := New(Config{MaxWorkers: 4})
	req := cloudRequest(22, 400)
	info, err := svc.Register(bg, req)
	if err != nil {
		t.Fatal(err)
	}
	den := densitiesFor(req, info.SourceDim)

	// Gauge prober: lanes_in_use <= max_workers at every sample.
	probeStop := make(chan struct{})
	var probeBad atomic.Int32
	go func() {
		for {
			select {
			case <-probeStop:
				return
			default:
			}
			if in := svc.pool.LanesInUse(); in < 0 || in > 4 {
				probeBad.Add(1)
			}
			runtime.Gosched()
		}
	}()

	const callers = 6
	var wg sync.WaitGroup
	errc := make(chan error, callers)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			_, st, err := evalOne(bg, svc, info.ID, den)
			if err != nil {
				errc <- err
				return
			}
			if st.GrantedLanes < 1 || st.GrantedLanes > 4 {
				errc <- fmt.Errorf("caller %d granted %d lanes on a 4-lane pool", c, st.GrantedLanes)
			}
		}(c)
	}
	wg.Wait()
	close(probeStop)
	close(errc)
	for err := range errc {
		t.Error(err)
	}
	if probeBad.Load() != 0 {
		t.Errorf("lanes_in_use left [0, 4] %d times under saturation", probeBad.Load())
	}
	m := svc.MetricsRegistry().Snapshot()
	var admitted float64
	for _, n := range grantedWidths(m) {
		admitted += n
	}
	if admitted != callers {
		t.Errorf("histogram admissions %v, want %d", admitted, callers)
	}
	if m["kifmm_lanes_in_use"] != 0 {
		t.Errorf("LanesInUse = %v after all evaluations returned", m["kifmm_lanes_in_use"])
	}
}

// grantedWidths returns the per-width admission counts of a registry
// snapshot, keyed by series.
func grantedWidths(m map[string]float64) map[string]float64 {
	out := make(map[string]float64)
	for k, v := range m {
		if strings.HasPrefix(k, "kifmm_granted_width_total{") {
			out[k] = v
		}
	}
	return out
}

// TestElasticServiceSoak is the service-level soak of the elastic
// scheduler: concurrent HTTP evaluations racing cancellations over a
// shared plan, followed by a server drain — every lane returns to the
// pool and no goroutine survives. Run under -race in CI.
func TestElasticServiceSoak(t *testing.T) {
	before := runtime.NumGoroutine()
	svc := New(Config{MaxWorkers: 4})
	ts := httptest.NewServer(NewServer(svc))
	info, den := slowPlan(t, svc)
	if _, _, err := evalOne(bg, svc, info.ID, den); err != nil { // warm caches
		t.Fatal(err)
	}

	callers, rounds := 6, 4
	if testing.Short() {
		callers, rounds = 4, 2
	}
	body, err := json.Marshal(EvaluateRequest{Densities: den})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	errc := make(chan error, callers*rounds)
	for c := 0; c < callers; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(int64(c)))
			for r := 0; r < rounds; r++ {
				ctx, cancel := context.WithCancel(context.Background())
				req, err := http.NewRequestWithContext(ctx, http.MethodPost,
					ts.URL+"/v1/plans/"+info.ID+"/evaluate", bytes.NewReader(body))
				if err != nil {
					cancel()
					errc <- err
					return
				}
				req.Header.Set("Content-Type", "application/json")
				if rng.Intn(3) == 0 {
					// Some callers walk away mid-evaluation.
					go func() {
						time.Sleep(time.Duration(rng.Intn(20)) * time.Millisecond)
						cancel()
					}()
				}
				resp, err := http.DefaultClient.Do(req)
				if err == nil {
					if resp.StatusCode != http.StatusOK {
						errc <- fmt.Errorf("caller %d round %d: status %d", c, r, resp.StatusCode)
					}
					resp.Body.Close()
				} else if !errors.Is(err, context.Canceled) {
					errc <- err
				}
				cancel()
			}
		}(c)
	}
	wg.Wait()
	close(errc)
	for err := range errc {
		t.Error(err)
	}

	// Drain: in-flight work is done; the server must shut down cleanly,
	// every lane must be back in the pool, and the goroutine count must
	// return to baseline.
	ts.Close()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.GC()
		if svc.pool.LanesInUse() == 0 && runtime.NumGoroutine() <= before {
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("after drain: %d lanes still leased, goroutines %d before vs %d after",
				svc.pool.LanesInUse(), before, runtime.NumGoroutine())
		}
		time.Sleep(10 * time.Millisecond)
	}
	if m := svc.MetricsRegistry().Snapshot(); m["kifmm_evaluations_total"] == 0 {
		t.Error("soak recorded no completed evaluations")
	}
	// Results served under elastic competition match an undisturbed
	// call bitwise (the conformance suite proves this exhaustively;
	// here it guards the service wiring).
	want, _, err := evalOne(bg, svc, info.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	got, _, err := evalOne(bg, svc, info.ID, den)
	if err != nil {
		t.Fatal(err)
	}
	for i := range got {
		if got[i] != want[i] {
			t.Fatalf("repeated evaluation differs at %d after soak", i)
		}
	}
}
